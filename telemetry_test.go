package repro

import (
	"reflect"
	"testing"
)

// TestTelemetryZeroPerturbation pins the observability contract: telemetry
// reads the clock, it never schedules, so enabling it must not change any
// other result field — for every golden workload shape grown so far, the
// telemetry-on run stripped of its Latency report is bit-identical to the
// telemetry-off run. This is what makes the histograms trustworthy: they
// describe the same execution the goldens locked, not a perturbed one.
func TestTelemetryZeroPerturbation(t *testing.T) {
	for name, cfg := range goldenShapes() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg.DurationNs = 20_000_000
			cfg.WarmupNs = 10_000_000

			off, err := RunStream(cfg)
			if err != nil {
				t.Fatalf("telemetry off: %v", err)
			}
			oncfg := cfg
			oncfg.Telemetry = TelemetryConfig{Latency: true, SpanSink: func([]Span) {}}
			on, err := RunStream(oncfg)
			if err != nil {
				t.Fatalf("telemetry on: %v", err)
			}
			if !on.Latency.Enabled || on.Latency.E2E.Count == 0 {
				t.Errorf("telemetry on recorded nothing: %+v", on.Latency)
			}
			// The RPC shapes force Latency on even in the "off" run; strip
			// the report from both sides so the comparison covers every
			// other field.
			off.Latency, on.Latency = LatencyReport{}, LatencyReport{}
			if !reflect.DeepEqual(off, on) {
				t.Errorf("telemetry perturbed the run:\n  off: %+v\n  on:  %+v", off, on)
			}
		})
	}
}

// tracedTelemetry turns on every telemetry output, delivering the drained
// spans to sink.
func tracedTelemetry(sink func([]Span)) TelemetryConfig {
	return TelemetryConfig{Latency: true, SpanSink: sink}
}

// TestRPCIncastTailGrowsWithFanIn checks the incast workload measures what
// it claims: synchronized response bursts over a shared wire queue the
// last message behind fan-in−1 others, so the RTT tail must rise with
// fan-in — on the native path and across the Xen paravirtual path.
func TestRPCIncastTailGrowsWithFanIn(t *testing.T) {
	for _, sys := range []SystemKind{SystemNativeUP, SystemXen} {
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			t.Parallel()
			p99 := map[int]uint64{}
			for _, fanin := range []int{4, 32} {
				cfg := DefaultStreamConfig(sys, OptFull)
				cfg.NICs = 1
				cfg.Connections = fanin
				cfg.RPC = RPCConfig{Enabled: true}
				cfg.DurationNs = 30_000_000
				cfg.WarmupNs = 10_000_000
				res, err := RunStream(cfg)
				if err != nil {
					t.Fatalf("fan-in %d: %v", fanin, err)
				}
				if res.RPCRounds == 0 {
					t.Fatalf("fan-in %d: no bursts completed", fanin)
				}
				lat := res.Latency
				if !lat.Enabled || lat.RTT.Count == 0 {
					t.Fatalf("fan-in %d: no RTT samples: %+v", fanin, lat)
				}
				if lat.RTT.P50Ns == 0 || lat.RTT.P99Ns < lat.RTT.P50Ns {
					t.Errorf("fan-in %d: degenerate RTT summary: %+v", fanin, lat.RTT)
				}
				if lat.E2E.Count == 0 {
					t.Errorf("fan-in %d: no per-message e2e samples", fanin)
				}
				p99[fanin] = lat.RTT.P99Ns
			}
			if p99[32] <= p99[4] {
				t.Errorf("incast p99 did not grow with fan-in: 4→%dns, 32→%dns",
					p99[4], p99[32])
			}
		})
	}
}

// TestStageResidencyConsistency cross-checks the stage taxonomy against
// the cycle accounting: the five stage residencies partition the
// end-to-end latency exactly (same counts, sums add up), and the mean
// in-machine residency is at least commensurate with the cycles the cost
// model charged per host packet — a packet cannot leave the machine
// faster than its own processing was priced.
func TestStageResidencyConsistency(t *testing.T) {
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.DurationNs = 20_000_000
	cfg.WarmupNs = 10_000_000
	cfg.Telemetry = TelemetryConfig{Latency: true}
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lat := res.Latency
	if !lat.Enabled || lat.E2E.Count == 0 {
		t.Fatalf("no latency samples: %+v", lat)
	}

	var stageSum, inMachineSum uint64
	for _, s := range lat.Stages {
		stageSum += s.SumNs
		if s.Stage != "wire" {
			inMachineSum += s.SumNs
		}
		if s.Count != lat.E2E.Count {
			t.Errorf("stage %s count %d != e2e count %d", s.Stage, s.Count, lat.E2E.Count)
		}
	}
	if stageSum != lat.E2E.SumNs {
		t.Errorf("stage residencies do not partition e2e: stages sum %dns, e2e sum %dns",
			stageSum, lat.E2E.SumNs)
	}

	// Charged processing time per host packet, in ns: the delivered
	// message spent at least this long resident (typically far more — ring
	// wait and aggregation windows dominate). Allow 2x slack for charges
	// landing after the app-read stamp (ACK transmit, round bookkeeping).
	perPacketNs := res.CyclesPerPacket * res.AggFactor / NativeUP().ClockHz * 1e9
	meanResidency := float64(inMachineSum) / float64(lat.E2E.Count)
	if meanResidency < perPacketNs/2 {
		t.Errorf("mean in-machine residency %.0fns below half the charged per-packet time %.0fns",
			meanResidency, perPacketNs)
	}
}
