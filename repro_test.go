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
		if d := after.TotalAlloc - before.TotalAlloc; try == 0 || d < least {
			least = d
		}
	}
	return least
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
