// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs the corresponding experiment and reports the
// figures' headline quantities as custom metrics; the first iteration also
// prints the paper-style table. Absolute wall-clock ns/op measures the
// simulator, not the system under test — the interesting outputs are the
// Mb/s, cycles/packet and req/s metrics.
//
// Run everything:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/profile"
)

// benchStream shortens runs so each bench iteration stays ~0.1-0.5 s.
func benchStream(b *testing.B, cfg StreamConfig) StreamResult {
	b.Helper()
	cfg.DurationNs = 50_000_000
	cfg.WarmupNs = 25_000_000
	res, err := RunStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig1_PrefetchImpact regenerates Figure 1: overhead shares on the
// 3.8 GHz uniprocessor under None/Partial/Full prefetching.
func BenchmarkFig1_PrefetchImpact(b *testing.B) {
	groups := profile.StandardShareGroups()
	for i := 0; i < b.N; i++ {
		var rows []string
		var per [][]float64
		for _, mode := range []memmodel.PrefetchMode{
			memmodel.PrefetchNone, memmodel.PrefetchPartial, memmodel.PrefetchFull,
		} {
			p := NativeUP38()
			p.Mem.Mode = mode
			cfg := DefaultStreamConfig(SystemNativeUP, OptNone)
			cfg.NICs = 1
			cfg.Params = &p
			res := benchStream(b, cfg)
			shares := profile.ShareLine(res.Breakdown, groups)
			rows = append(rows, mode.String())
			per = append(per, shares)
			b.ReportMetric(shares[0], "pct_per_byte_"+mode.String())
		}
		if i == 0 {
			fmt.Print(profile.SharesTable("Figure 1 (paper: per-byte 52% -> 14%, per-packet 37% -> ~70%)",
				rows, per, groups))
		}
	}
}

// BenchmarkFig2_SystemsComparison regenerates Figure 2: per-byte vs
// per-packet shares for UP, SMP and Xen with full prefetching.
func BenchmarkFig2_SystemsComparison(b *testing.B) {
	groups := profile.StandardShareGroups()
	for i := 0; i < b.N; i++ {
		var rows []string
		var per [][]float64
		for _, sys := range []SystemKind{SystemNativeUP, SystemNativeSMP, SystemXen} {
			res := benchStream(b, DefaultStreamConfig(sys, OptNone))
			rows = append(rows, sys.String())
			per = append(per, profile.ShareLine(res.Breakdown, groups))
		}
		if i == 0 {
			fmt.Print(profile.SharesTable("Figure 2 (paper: per-packet dominates everywhere)",
				rows, per, groups))
		}
	}
}

// BenchmarkFig3_UPBreakdown regenerates Figure 3: the uniprocessor
// cycles-per-packet breakdown.
func BenchmarkFig3_UPBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchStream(b, DefaultStreamConfig(SystemNativeUP, OptNone))
		b.ReportMetric(res.CyclesPerPacket, "cycles/pkt")
		if i == 0 {
			fmt.Print(FormatBreakdown(
				"Figure 3 (paper shares: per-byte 17%, rx+tx 21%, buffer+non-proto 25%, driver 21%)",
				res.Breakdown))
		}
	}
}

// BenchmarkFig4_SMPBreakdown regenerates Figure 4: UP vs SMP breakdowns
// (rx +62%, tx +40% from locking).
func BenchmarkFig4_SMPBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		up := benchStream(b, DefaultStreamConfig(SystemNativeUP, OptNone))
		smp := benchStream(b, DefaultStreamConfig(SystemNativeSMP, OptNone))
		b.ReportMetric(smp.Breakdown.Get(1)/up.Breakdown.Get(1), "rx_ratio")
		if i == 0 {
			fmt.Print(profile.Comparison(
				"Figure 4 (paper: rx +62%, tx +40%, buffer/copy unchanged)",
				"UP", "SMP", up.Breakdown, smp.Breakdown, profile.NativeCategories))
		}
	}
}

// BenchmarkFig6_XenBreakdown regenerates Figure 6: the virtualized
// breakdown (per-packet 56%, per-byte 14%, TCP itself only 10%).
func BenchmarkFig6_XenBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchStream(b, DefaultStreamConfig(SystemXen, OptNone))
		b.ReportMetric(res.CyclesPerPacket, "cycles/pkt")
		if i == 0 {
			fmt.Print(FormatXenBreakdown(
				"Figure 6 (paper: virt per-packet 56%, per-byte 14%, TCP rx+tx 10%)",
				res.Breakdown))
		}
	}
}

// BenchmarkFig7_OverallThroughput regenerates Figure 7: Original vs RA-only
// vs Optimized throughput for the three systems.
func BenchmarkFig7_OverallThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Println("Figure 7 (paper: UP 3452->4660, SMP 2988->4660, Xen 1088->1877 Mb/s)")
		}
		for _, sys := range []SystemKind{SystemNativeUP, SystemNativeSMP, SystemXen} {
			orig := benchStream(b, DefaultStreamConfig(sys, OptNone))
			ra := benchStream(b, DefaultStreamConfig(sys, OptAggregation))
			opt := benchStream(b, DefaultStreamConfig(sys, OptFull))
			b.ReportMetric(orig.ThroughputMbps, fmt.Sprintf("Mbps_orig_%d", int(sys)))
			b.ReportMetric(opt.ThroughputMbps, fmt.Sprintf("Mbps_opt_%d", int(sys)))
			if i == 0 {
				fmt.Printf("  %-10s original %5.0f | RA only %5.0f (%+3.0f%%) | optimized %5.0f (%+3.0f%%) at %2.0f%% CPU\n",
					sys, orig.ThroughputMbps,
					ra.ThroughputMbps, (ra.ThroughputMbps/orig.ThroughputMbps-1)*100,
					opt.ThroughputMbps, (opt.ThroughputMbps/orig.ThroughputMbps-1)*100,
					opt.CPUUtil*100)
			}
		}
	}
}

// figOptBreakdownBench is the shared shape of Figures 8-10.
func figOptBreakdownBench(b *testing.B, sys SystemKind, title string, xen bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		orig := benchStream(b, DefaultStreamConfig(sys, OptNone))
		opt := benchStream(b, DefaultStreamConfig(sys, OptFull))
		b.ReportMetric(orig.CyclesPerPacket/opt.CyclesPerPacket, "total_reduction_x")
		b.ReportMetric(opt.AggFactor, "agg_factor")
		if i == 0 {
			fmt.Print(FormatComparison(title, orig.Breakdown, opt.Breakdown, xen))
		}
	}
}

// BenchmarkFig8_UPOptimizedBreakdown regenerates Figure 8 (paper: the four
// per-packet categories fall 4.3x; aggr costs ~789 cycles/packet; the
// driver sheds ~681).
func BenchmarkFig8_UPOptimizedBreakdown(b *testing.B) {
	figOptBreakdownBench(b, SystemNativeUP,
		"Figure 8 (paper: per-packet categories ÷4.3, aggr ~789 cycles/pkt)", false)
}

// BenchmarkFig9_SMPOptimizedBreakdown regenerates Figure 9 (paper: 5.5x —
// the lock overhead scales down with the packet count).
func BenchmarkFig9_SMPOptimizedBreakdown(b *testing.B) {
	figOptBreakdownBench(b, SystemNativeSMP,
		"Figure 9 (paper: per-packet categories ÷5.5)", false)
}

// BenchmarkFig10_XenOptimizedBreakdown regenerates Figure 10 (paper: virt
// per-packet categories ÷3.7; netfront/netback fall less — per-fragment
// costs remain).
func BenchmarkFig10_XenOptimizedBreakdown(b *testing.B) {
	figOptBreakdownBench(b, SystemXen,
		"Figure 10 (paper: virt per-packet categories ÷3.7)", true)
}

// BenchmarkFig11_AggregationLimitSweep regenerates Figure 11: CPU cycles
// per packet as a function of the Aggregation Limit (x + y/k shape, knee
// well before the paper's chosen 20).
func BenchmarkFig11_AggregationLimitSweep(b *testing.B) {
	limits := []int{1, 2, 3, 5, 8, 10, 15, 20, 25, 30, 35}
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Println("Figure 11 (paper: steep drop then flat; limit 20 chosen)")
			fmt.Printf("  %-6s %14s %6s\n", "limit", "cycles/packet", "agg")
		}
		for _, lim := range limits {
			cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
			cfg.AggLimit = lim
			res := benchStream(b, cfg)
			if lim == 1 || lim == 20 {
				b.ReportMetric(res.CyclesPerPacket, fmt.Sprintf("cycles_limit%d", lim))
			}
			if i == 0 {
				fmt.Printf("  %-6d %14.0f %6.1f\n", lim, res.CyclesPerPacket, res.AggFactor)
			}
		}
	}
}

// BenchmarkFig12_Scalability regenerates Figure 12: throughput vs number of
// concurrent connections on the SMP system.
func BenchmarkFig12_Scalability(b *testing.B) {
	conns := []int{5, 25, 100, 400}
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Println("Figure 12 (paper: optimized stays >=40% ahead through 400 connections)")
			fmt.Printf("  %-8s %10s %10s %7s\n", "conns", "Original", "Optimized", "gain")
		}
		for _, c := range conns {
			base := DefaultStreamConfig(SystemNativeSMP, OptNone)
			base.Connections = c
			orig := benchStream(b, base)
			optCfg := DefaultStreamConfig(SystemNativeSMP, OptFull)
			optCfg.Connections = c
			opt := benchStream(b, optCfg)
			if c == 400 {
				b.ReportMetric(opt.ThroughputMbps/orig.ThroughputMbps, "gain_at_400_x")
			}
			if i == 0 {
				fmt.Printf("  %-8d %10.0f %10.0f %+6.0f%%\n", c,
					orig.ThroughputMbps, opt.ThroughputMbps,
					(opt.ThroughputMbps/orig.ThroughputMbps-1)*100)
			}
		}
	}
}

// BenchmarkTable1_RequestResponse regenerates Table 1: netperf-style
// request/response rates with and without the optimizations.
func BenchmarkTable1_RequestResponse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Println("Table 1 (paper: UP 7874/7894, SMP 7970/7985, Xen 6965/6953 req/s)")
		}
		for _, sys := range []SystemKind{SystemNativeUP, SystemNativeSMP, SystemXen} {
			cfg := DefaultRRConfig(sys, OptNone)
			cfg.DurationNs = 150_000_000
			orig, err := RunRR(cfg)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Opt = OptFull
			opt, err := RunRR(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(orig.RequestsPerSec, fmt.Sprintf("reqps_orig_%d", int(sys)))
			if i == 0 {
				fmt.Printf("  %-10s original %5.0f | optimized %5.0f (%+.2f%%)\n",
					sys, orig.RequestsPerSec, opt.RequestsPerSec,
					(opt.RequestsPerSec/orig.RequestsPerSec-1)*100)
			}
		}
	}
}

// BenchmarkRSS_QueueScaling goes beyond the paper: aggregate throughput
// and per-CPU utilization of the multi-queue RSS pipeline as the queue
// count scales 1->8 over a 200-flow, 8-link workload (the N=1 row is the
// paper's single-softirq receiver; 8 links keep the wire ceiling above
// what 2 CPUs can chew).
func BenchmarkRSS_QueueScaling(b *testing.B) {
	queues := []int{1, 2, 4, 8}
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Println("RSS queue scaling (UP baseline, 200 flows, 8 links; 1 queue is the paper's machine)")
			fmt.Printf("  %-7s %10s %8s  %s\n", "queues", "Mb/s", "util", "per-CPU util")
		}
		for _, q := range queues {
			cfg := DefaultStreamConfig(SystemNativeUP, OptNone)
			cfg.NICs = 8
			cfg.Connections = 200
			cfg.Queues = q
			res := benchStream(b, cfg)
			b.ReportMetric(res.ThroughputMbps, fmt.Sprintf("Mbps_q%d", q))
			if i == 0 {
				per := ""
				for _, u := range res.PerCPUUtil {
					per += fmt.Sprintf(" %4.0f%%", u*100)
				}
				fmt.Printf("  %-7d %10.0f %7.0f%% %s\n", q, res.ThroughputMbps, res.CPUUtil*100, per)
			}
		}
	}
}

// BenchmarkXen_QueueScaling is the paravirtual counterpart of
// BenchmarkRSS_QueueScaling: aggregate throughput as the number of
// per-vCPU netfront/netback I/O channels scales 1->4 on a CPU-bound
// many-flow Xen workload (1 channel is the paper's single-event-channel
// machine).
func BenchmarkXen_QueueScaling(b *testing.B) {
	queues := []int{1, 2, 4}
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Println("Xen I/O channel scaling (baseline, 100 flows, 5 links)")
			fmt.Printf("  %-9s %10s %8s  %s\n", "channels", "Mb/s", "util", "per-vCPU util")
		}
		for _, q := range queues {
			cfg := DefaultStreamConfig(SystemXen, OptNone)
			cfg.Connections = 100
			cfg.Queues = q
			res := benchStream(b, cfg)
			b.ReportMetric(res.ThroughputMbps, fmt.Sprintf("Mbps_q%d", q))
			if i == 0 {
				per := ""
				for _, u := range res.PerCPUUtil {
					per += fmt.Sprintf(" %4.0f%%", u*100)
				}
				fmt.Printf("  %-9d %10.0f %7.0f%% %s\n", q, res.ThroughputMbps, res.CPUUtil*100, per)
			}
		}
	}
}

// BenchmarkRSS_ManyFlowChurn exercises the production-shaped workload:
// 400 zipf-skewed flows with connection churn on a 4-queue optimized
// pipeline.
func BenchmarkRSS_ManyFlowChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
		cfg.Connections = 400
		cfg.Queues = 4
		cfg.FlowSkew = 1.1
		cfg.ChurnIntervalNs = 2_000_000
		res := benchStream(b, cfg)
		b.ReportMetric(res.ThroughputMbps, "Mbps")
		b.ReportMetric(res.AggFactor, "agg_factor")
		b.ReportMetric(float64(res.FlowsTornDown), "flows_churned")
		if i == 0 {
			fmt.Printf("400 skewed flows, 4 queues: %.0f Mb/s at %.0f%% mean CPU, agg %.1f, %d churned\n",
				res.ThroughputMbps, res.CPUUtil*100, res.AggFactor, res.FlowsTornDown)
		}
	}
}

// BenchmarkSteer_DynamicSteering measures the 200-flow zipf workload
// under static RSS vs dynamic steering (rebalancer + aRFS): the
// utilization-spread narrowing and its throughput cost (none; on
// CPU-bound systems steering gains throughput).
func BenchmarkSteer_DynamicSteering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
		cfg.NICs = 8
		cfg.Connections = 200
		cfg.Queues = 4
		cfg.FlowSkew = 1.2
		static := benchStream(b, cfg)
		cfg.Steering = SteerConfig{Enabled: true, ARFS: true}
		steered := benchStream(b, cfg)
		b.ReportMetric(steered.ThroughputMbps, "Mbps")
		b.ReportMetric(static.UtilSpread(), "static_spread")
		b.ReportMetric(steered.UtilSpread(), "steered_spread")
		if i == 0 {
			fmt.Printf("steering: spread %.3f -> %.3f, %.0f -> %.0f Mb/s, %d moves, %d rules\n",
				static.UtilSpread(), steered.UtilSpread(),
				static.ThroughputMbps, steered.ThroughputMbps,
				steered.Steer.Moves, steered.Steer.RulesProgrammed)
		}
	}
}

// BenchmarkReorder_WindowSweep measures reordering tolerance: the
// 200-flow zipf workload under 2% adjacent-swap reorder, with the
// resequencing window off (strict flush-on-OOO) and on. The window must
// recover the aggregation factor (and with it bytes/aggregate) that the
// reorder otherwise destroys.
func BenchmarkReorder_WindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, win := range []int{0, 4} {
			cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
			cfg.NICs = 8
			cfg.Connections = 200
			cfg.Queues = 4
			cfg.FlowSkew = 1.1
			cfg.Reorder = ReorderConfig{OneIn: 50, Distance: 1}
			cfg.ReorderWindow = win
			res := benchStream(b, cfg)
			b.ReportMetric(res.ThroughputMbps, fmt.Sprintf("Mbps_w%d", win))
			b.ReportMetric(res.AggFactor, fmt.Sprintf("agg_w%d", win))
			if i == 0 {
				fmt.Printf("2%% swaps, window %d: %.0f Mb/s, agg %.2f, %d mismatch flushes, %d stitched, %d OOO segs\n",
					win, res.ThroughputMbps, res.AggFactor,
					res.AggStats.FlushMismatch, res.AggStats.Stitched, res.OOOSegs)
			}
		}
	}
}

// BenchmarkLoss_Sweep is the loss degradation study in miniature: the
// paravirtual five-link stream under 1% uniform loss with Reno-only and
// SACK-based recovery. The headline metrics are the throughput each
// recovery style sustains and the fast-retransmit/RTO mix behind it.
func BenchmarkLoss_Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sack := range []bool{false, true} {
			cfg := DefaultStreamConfig(SystemXen, OptFull)
			cfg.Loss = LossConfig{OneIn: 100}
			cfg.SACK = sack
			cfg.Telemetry.Latency = true
			res := benchStream(b, cfg)
			name := "reno"
			if sack {
				name = "sack"
			}
			b.ReportMetric(res.ThroughputMbps, "Mbps_"+name)
			b.ReportMetric(float64(res.Loss.FastRetransmits), "fastrtx_"+name)
			b.ReportMetric(float64(res.Loss.RTOs), "rto_"+name)
			if i == 0 {
				fmt.Printf("1%% loss, %s: %.0f Mb/s, %d lost, %d fast rtx, %d RTOs, %d sack rtx, rec p99 %.0f µs\n",
					name, res.ThroughputMbps, res.LostFrames, res.Loss.FastRetransmits,
					res.Loss.RTOs, res.Loss.SACKRetransmits,
					float64(res.Latency.Recovery.P99Ns)/1e3)
			}
		}
	}
}

// BenchmarkTimeWait_RestartStorm measures the TIME_WAIT subsystem under
// the restart-storm workload: half the flows torn down mid-measurement
// and redialed on their own four-tuples (SYN-time reuse) against a
// 50k-entry seeded backlog. Receive-path cycles/byte must stay at the
// storm-free level — the deadline wheel charges per entry touched, never
// per entry lingering.
func BenchmarkTimeWait_RestartStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
		cfg.NICs = 4
		cfg.Connections = 80
		cfg.Queues = 2
		cfg.TimeWaitReuse = true
		cfg.RestartStorm = RestartStormConfig{
			AtNs:            35_000_000, // 10 ms into benchStream's measured interval
			Fraction:        0.5,
			PrefillTimeWait: 50_000,
		}
		res := benchStream(b, cfg)
		b.ReportMetric(res.ThroughputMbps, "Mbps")
		b.ReportMetric(res.CyclesPerByte(), "cyc/byte")
		b.ReportMetric(float64(res.TimeWait.Peak), "tw_peak")
		b.ReportMetric(float64(res.TimeWait.Reused), "tw_reused")
		if i == 0 {
			fmt.Printf("restart storm: tw peak %d (%.1f MiB), %d reaped, %d reused (%d refused), %d/%d reconnected, %.2f cyc/byte\n",
				res.TimeWait.Peak, float64(res.TimeWait.PeakBytes)/(1<<20),
				res.TimeWait.Reaped, res.TimeWait.Reused, res.TimeWait.ReuseRefused,
				res.Storm.Reconnected, res.Storm.TornDown, res.CyclesPerByte())
		}
	}
}

// BenchmarkConnScale_Demux is the million-flow demux point: a skewed
// 64-flow active subset receiving against a 200k-endpoint registered
// population. The headline metrics are the demux cycles charged per host
// packet (the capacity-miss excess of walking a mostly-cold table) and
// the resulting cycles/byte.
func BenchmarkConnScale_Demux(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchStream(b, connScaleConfig(200_000))
		b.ReportMetric(res.DemuxCyclesPerPacket(), "demux_cpp")
		b.ReportMetric(res.CyclesPerByte(), "cyc_byte")
		if i == 0 {
			fmt.Printf("connscale @200k: %.0f Mb/s, %.2f cyc/byte, demux %.0f c/pkt, table %.1f MiB, budget peak %.1f MiB\n",
				res.ThroughputMbps, res.CyclesPerByte(),
				res.DemuxCyclesPerPacket(),
				float64(res.Demux.Bytes)/(1<<20),
				float64(res.Mem.PeakBytes)/(1<<20))
		}
	}
}

// BenchmarkAblation_AggLimitOne checks §5.5: an Aggregation Limit of 1
// (the engine on the path but never coalescing) must not degrade
// performance relative to the baseline.
func BenchmarkAblation_AggLimitOne(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := benchStream(b, DefaultStreamConfig(SystemNativeUP, OptNone))
		cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
		cfg.AggLimit = 1
		lim1 := benchStream(b, cfg)
		b.ReportMetric(lim1.CyclesPerPacket/base.CyclesPerPacket, "limit1_vs_base_x")
		if i == 0 {
			fmt.Printf("limit 1: %.0f cycles/pkt vs baseline %.0f (%+.1f%%; paper: no degradation)\n",
				lim1.CyclesPerPacket, base.CyclesPerPacket,
				(lim1.CyclesPerPacket/base.CyclesPerPacket-1)*100)
		}
	}
}

// BenchmarkHarness_WallClock measures the simulator harness itself —
// real wall-clock ns/op and allocs/op for one fixed experiment at 1, 2
// and 4 queues. This is the one benchmark in the file where ns/op IS the
// interesting number: it tracks the event loop's speed and the hot-path
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
