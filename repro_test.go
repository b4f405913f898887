package repro

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

func TestFacadeStream(t *testing.T) {
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.DurationNs = 30_000_000
	cfg.WarmupNs = 15_000_000
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputMbps < 4000 {
		t.Errorf("optimized UP throughput = %.0f Mb/s", res.ThroughputMbps)
	}
	out := FormatBreakdown("test", res.Breakdown)
	if !strings.Contains(out, "aggr") {
		t.Errorf("breakdown missing aggr category:\n%s", out)
	}
}

func TestFacadeRR(t *testing.T) {
	cfg := DefaultRRConfig(SystemNativeUP, OptNone)
	cfg.DurationNs = 50_000_000
	res, err := RunRR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestsPerSec < 7000 || res.RequestsPerSec > 9000 {
		t.Errorf("RR rate = %.0f req/s", res.RequestsPerSec)
	}
}

func TestFacadeProfiles(t *testing.T) {
	for _, p := range []CostParams{NativeUP(), NativeUP38(), NativeSMP(), XenGuest()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestFacadeComparison(t *testing.T) {
	short := func(opt OptLevel) StreamResult {
		cfg := DefaultStreamConfig(SystemXen, opt)
		cfg.DurationNs = 30_000_000
		cfg.WarmupNs = 15_000_000
		res, err := RunStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	orig := short(OptNone)
	opt := short(OptFull)
	out := FormatComparison("Figure 10", orig.Breakdown, opt.Breakdown, true)
	for _, want := range []string{"netback", "netfront", "xen", "factor"} {
		if !strings.Contains(out, want) {
			t.Errorf("Xen comparison missing %q:\n%s", want, out)
		}
	}
}

// leastRunAlloc returns the fewest bytes, by runtime.MemStats.TotalAlloc,
// that any of three runs of cfg allocates, with the collector off. Other
// goroutines' allocations only add to a reading, so the fewest is the
// run's own.
func leastRunAlloc(t *testing.T, cfg StreamConfig) uint64 {
	t.Helper()
	return leastRunStat(t, cfg, func(m *runtime.MemStats) uint64 { return m.TotalAlloc })
}

// leastRunMallocs is leastRunAlloc's twin for the allocation count,
// runtime.MemStats.Mallocs.
func leastRunMallocs(t *testing.T, cfg StreamConfig) uint64 {
	t.Helper()
	return leastRunStat(t, cfg, func(m *runtime.MemStats) uint64 { return m.Mallocs })
}

// leastRunStat returns the least delta of stat over three runs of cfg,
// with the collector off.
func leastRunStat(t *testing.T, cfg StreamConfig, stat func(*runtime.MemStats) uint64) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var least uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunStream(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d := stat(&after) - stat(&before); try == 0 || d < least {
			least = d
		}
	}
	return least
}

// TestPaperXenMallocBudget bounds the host allocations of the paper-xen
// benchmark workload's shape (Xen, Optimized, 20 ms). A run's mallocs are
// the fixed price of its frame population, not a per-frame cost: the frame
// pool and the reverse link carve their records eight to a page (one
// malloc per buffer in flight measured 1,185 on this run, against 645
// paged), every event record is its own handler with no closure bound to
// it (494), the containers that used to double from empty are sized at
// their first growth (413), and the connections open from one record slab
// per machine while the aggregation queue takes its first size from the
// poll budget (356). The budget is the 356 measured plus about 9% for the
// runtime's own allocations, which the MemStats delta counts too.
func TestPaperXenMallocBudget(t *testing.T) {
	const budget = 390
	cfg := DefaultStreamConfig(SystemXen, OptFull)
	cfg.DurationNs = 20_000_000
	least := leastRunMallocs(t, cfg)
	t.Logf("paper-xen shape allocates %d times", least)
	if least > budget {
		t.Errorf("paper-xen shape allocated %d times, budget %d", least, budget)
	}
}

// TestFaultsChurnMallocBudget bounds the host allocations of the
// faults-churn benchmark workload's shape (loss, reordering, SACK and 2 ms
// churn; 200 ms). Each machine carves its initial connections from one
// slab, and every per-connection container takes a stated first size at
// its first growth, so what is left is each record's first use of its
// containers and the few queues that outgrow their first size. The budget
// is the measured count plus about 10%.
func TestFaultsChurnMallocBudget(t *testing.T) {
	const budget = 1420
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.NICs, cfg.Connections, cfg.FlowSkew = 4, 80, 1.1
	cfg.Loss = LossConfig{OneIn: 100, Seed: 1}
	cfg.SACK = true
	cfg.Reorder = ReorderConfig{OneIn: 50, Distance: 1}
	cfg.ReorderWindow = 4
	cfg.ChurnIntervalNs = 2_000_000
	cfg.DurationNs = 200_000_000
	least := leastRunMallocs(t, cfg)
	t.Logf("faults-churn shape allocates %d times", least)
	if least > budget {
		t.Errorf("faults-churn shape allocated %d times, budget %d", least, budget)
	}
}

// TestRSSSMPMallocBudget bounds the host allocations of the rss-smp-q2
// benchmark workload's shape (8 links, 200 zipf flows over 2 RSS queues;
// 50 ms): its 200 connections open from one slab per machine. The budget
// is the measured count plus about 10%.
func TestRSSSMPMallocBudget(t *testing.T) {
	const budget = 1330
	cfg := DefaultStreamConfig(SystemNativeSMP, OptFull)
	cfg.NICs, cfg.Connections, cfg.FlowSkew, cfg.Queues = 8, 200, 1.1, 2
	cfg.DurationNs = 50_000_000
	least := leastRunMallocs(t, cfg)
	t.Logf("rss-smp-q2 shape allocates %d times", least)
	if least > budget {
		t.Errorf("rss-smp-q2 shape allocated %d times, budget %d", least, budget)
	}
}

// TestRPCIncastSetupHostBytes pins the host memory a run of the rpc-incast
// benchmark workload's shape allocates before its first frame: bounded
// rings (the aggregation queue, the NIC's descriptor rings) and the
// TIME_WAIT shards hold only what traffic puts in them, so set-up is the
// topology, endpoints and pools. The run is one nanosecond long.
func TestRPCIncastSetupHostBytes(t *testing.T) {
	const budget = 320_000
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.NICs, cfg.Connections = 1, 64
	cfg.RPC = RPCConfig{Enabled: true, MessageBytes: 256}
	cfg.WarmupNs, cfg.DurationNs = 0, 1
	least := leastRunAlloc(t, cfg)
	t.Logf("rpc-incast set-up allocates %d bytes", least)
	if least > budget {
		t.Errorf("rpc-incast set-up allocated %d bytes, budget %d", least, budget)
	}
}
