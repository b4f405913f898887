// The paper's tables and figures are regenerated by cmd/rxbench, which
// defines each experiment once:
//
//	go run ./cmd/rxbench
package repro

import (
	"fmt"
	"testing"
)

// BenchmarkHarness_WallClock measures the simulator harness itself —
// real wall-clock ns/op and allocs/op for one fixed experiment at 1, 2
// and 4 queues. It tracks the event loop's speed and the hot-path
// allocation budget. The workload is the 4-queue connection-scale sweep
// point (8 links so the wire ceiling sits above the CPUs; 100k registered
// flows).
func BenchmarkHarness_WallClock(b *testing.B) {
	for _, q := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("serial/q%d", q), func(b *testing.B) {
			cfg := DefaultStreamConfig(SystemNativeSMP, OptFull)
			cfg.NICs = 8
			cfg.Queues = q
			cfg.Connections = 64
			cfg.RegisteredFlows = 100_000
			cfg.DurationNs = 50_000_000
			cfg.WarmupNs = 25_000_000
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunStream(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.ThroughputMbps, "Mb/s")
				}
			}
		})
	}
}

// BenchmarkConnScaleSetup times the set-up of the connscale-1m benchmark
// workload's shape, building the topology and registering its million
// idle flows, run over 1 ns of virtual time (WarmupNs 0, DurationNs 1):
// exactly what rxperf's setup_s times, as a Go benchmark whose runs pair
// up before and after a change.
func BenchmarkConnScaleSetup(b *testing.B) {
	cfg := connScaleConfig(1_000_000)
	cfg.WarmupNs, cfg.DurationNs = 0, 1
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RunStream(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
