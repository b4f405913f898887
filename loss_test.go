package repro

import "testing"

// lossStream runs the loss acceptance workload on the CPU-bound
// paravirtual configuration: five links with the uniform injector
// dropping one frame in n, SACK on or off on every connection, and the
// latency telemetry on for the recovery-episode histogram.
func lossStream(t *testing.T, oneIn int, sack bool) StreamResult {
	t.Helper()
	cfg := DefaultStreamConfig(SystemXen, OptFull)
	cfg.Loss = LossConfig{OneIn: oneIn}
	cfg.SACK = sack
	cfg.Telemetry.Latency = true
	cfg.DurationNs = 60_000_000
	cfg.WarmupNs = 20_000_000
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostFrames == 0 {
		t.Fatal("injector never dropped a frame: test is vacuous")
	}
	return res
}

// TestSACKRecoversLossyThroughput is the degradation-study acceptance
// check: at 1% and 5% uniform loss on the CPU-bound paravirtual
// configuration, SACK-based recovery must deliver strictly higher
// throughput than Reno-only recovery — selective hole fills keep the
// pipe full where cumulative ACKs stall — and the recovery-latency
// histogram must have recorded the episodes behind the p99.
func TestSACKRecoversLossyThroughput(t *testing.T) {
	for _, rate := range []struct {
		name  string
		oneIn int
	}{
		{"1pct", 100},
		{"5pct", 20},
	} {
		t.Run(rate.name, func(t *testing.T) {
			reno := lossStream(t, rate.oneIn, false)
			sack := lossStream(t, rate.oneIn, true)
			if sack.ThroughputMbps <= reno.ThroughputMbps {
				t.Errorf("SACK %.0f Mb/s not above Reno %.0f Mb/s at %s loss",
					sack.ThroughputMbps, reno.ThroughputMbps, rate.name)
			}
			if sack.Loss.SACKBlocksIn == 0 || sack.Loss.FastRetransmits == 0 {
				t.Errorf("SACK run recovered without SACK machinery: %+v", sack.Loss)
			}
			if reno.Loss.SACKBlocksIn != 0 || reno.Loss.SACKRetransmits != 0 {
				t.Errorf("Reno run saw SACK activity: %+v", reno.Loss)
			}
			rec := sack.Latency.Recovery
			if rec.Count == 0 || rec.P99Ns == 0 {
				t.Errorf("recovery-latency histogram empty: %+v", rec)
			}
			if rec.P99Ns < rec.P50Ns {
				t.Errorf("recovery percentiles inverted: p50 %d > p99 %d", rec.P50Ns, rec.P99Ns)
			}
		})
	}
}

// TestLossConfigValidation pins the config surface: the two loss models
// are mutually exclusive and rates are range-checked.
func TestLossConfigValidation(t *testing.T) {
	bad := []func(*StreamConfig){
		func(c *StreamConfig) { c.Loss.OneIn = -1 },
		func(c *StreamConfig) { c.Loss.BurstRate = -0.1 },
		func(c *StreamConfig) { c.Loss.BurstRate = 1.0 },
		func(c *StreamConfig) { c.Loss.OneIn = 100; c.Loss.BurstRate = 0.01 },
	}
	for i, mutate := range bad {
		cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
		cfg.DurationNs = 1_000_000
		mutate(&cfg)
		if _, err := RunStream(cfg); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
}
