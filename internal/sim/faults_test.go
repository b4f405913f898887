package sim

import "testing"

// TestLossRecoveryThroughAggregation injects wire corruption into a bulk
// stream and verifies the whole control loop heals it: the NIC's checksum
// offload flags the frame, the aggregation engine refuses it (§3.1), the
// stack's software check drops it, subsequent segments queue out-of-order
// and generate dup-ACKs, and the sender fast-retransmits. The stream must
// keep flowing and the retransmitted bytes must be delivered exactly once.
func TestLossRecoveryThroughAggregation(t *testing.T) {
	for _, opt := range []OptLevel{OptNone, OptFull} {
		cfg := shortStream(SystemNativeUP, opt)
		cfg.NICs = 1
		cfg.CorruptOneIn = 400 // ~0.25% corruption
		top, err := buildStream(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		top.sim.RunUntil(cfg.WarmupNs + cfg.DurationNs)

		var corrupted uint64
		for _, l := range top.links {
			corrupted += l.Stats().Corrupted
		}
		if corrupted == 0 {
			t.Fatalf("%v: no corruption injected", opt)
		}

		// The receiver saw retransmissions succeed: bytes flowed and
		// nothing leaked.
		rcv := top.machine.Endpoints()[0]
		if rcv.Stats().BytesToApp == 0 {
			t.Fatalf("%v: stream stalled under corruption", opt)
		}
		if rcv.Stats().OOOSegs == 0 {
			t.Errorf("%v: no out-of-order segments despite drops", opt)
		}
		var retx uint64
		for _, snd := range top.senders {
			for _, c := range snd.conns {
				retx += c.ep.Stats().FastRetransmits + c.ep.Stats().RTOs
			}
		}
		if retx == 0 {
			t.Errorf("%v: sender never retransmitted", opt)
		}
		// Throughput suffers but the link keeps moving: at 0.25% loss
		// Reno should still sustain a respectable fraction of the link.
		bytes := appBytes(top.machine)
		mbps := float64(bytes) * 8 / (float64(cfg.WarmupNs+cfg.DurationNs) / 1e9) / 1e6
		if mbps < 100 {
			t.Errorf("%v: throughput collapsed to %.0f Mb/s under 0.25%% loss", opt, mbps)
		}
		if live := top.machine.Alloc.Stats().Live; live != 0 {
			t.Errorf("%v: %d SKBs leaked under loss", opt, live)
		}
	}
}

// TestCorruptedBytesNeverReachApp: with the receiver-side stream checks in
// place, injected corruption must never surface as delivered bytes (the
// checksum machinery catches every flip).
func TestCorruptedBytesNeverReachApp(t *testing.T) {
	cfg := shortStream(SystemNativeUP, OptFull)
	cfg.NICs = 1
	cfg.CorruptOneIn = 100
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Senders transmit the deterministic pattern stream; every delivered
	// byte must match its position in it — corruption (and any
	// misordering) can never surface in the application's stream.
	bad := 0
	for _, ep := range top.machine.Endpoints() {
		pos := uint32(1) // default IRS: first payload byte's sequence
		ep.AppSink = func(b []byte) {
			want := make([]byte, len(b))
			PatternPayload(pos, want)
			for i := range b {
				if b[i] != want[i] {
					bad++
				}
			}
			pos += uint32(len(b))
		}
	}
	top.sim.RunUntil(cfg.WarmupNs + cfg.DurationNs)
	if bad != 0 {
		t.Fatalf("%d corrupted bytes reached the application", bad)
	}
}

// TestSmallMessageWorkload reproduces the §5.5/§1 caveat: with small
// receive messages the optimizations neither help much nor hurt.
func TestSmallMessageWorkload(t *testing.T) {
	run := func(opt OptLevel) StreamResult {
		cfg := shortStream(SystemNativeUP, opt)
		cfg.MessageSize = 256
		res, err := RunStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(OptNone)
	opt := run(OptFull)
	if base.ThroughputMbps == 0 || opt.ThroughputMbps == 0 {
		t.Fatal("small-message stream stalled")
	}
	// Never worse (the paper's "overall performance will never get worse
	// than the original system").
	if opt.ThroughputMbps < base.ThroughputMbps*0.97 {
		t.Errorf("optimized small-message throughput regressed: %.0f vs %.0f Mb/s",
			opt.ThroughputMbps, base.ThroughputMbps)
	}
	// The bulk-mode *byte* gain (~35%) should not materialize here: the
	// per-packet savings still apply, but sub-MSS segments do not count
	// toward the 2-full-segment ACK rule, so the ACK-offload half is
	// mostly idle. Accept anything below the bulk gain.
	if gain := opt.ThroughputMbps / base.ThroughputMbps; gain > 2.2 {
		t.Errorf("small-message gain %.2fx suspiciously above bulk gain", gain)
	}
}
