package repro

import (
	"reflect"
	"testing"

	"repro/internal/netstack"
)

// connScaleConfig is the connscale sweep point: a small active subset
// demuxing against a large registered population.
func connScaleConfig(registered int) StreamConfig {
	cfg := DefaultStreamConfig(SystemNativeUP, OptNone)
	cfg.NICs = 4
	cfg.Connections = 64
	cfg.FlowSkew = 1.1
	cfg.RegisteredFlows = registered
	return cfg
}

// TestConnScaleDemuxFlat is the tentpole acceptance check: growing the
// registered population 10k -> 1M, total cycles/byte stays flat (<=15%
// drift) — a lookup's ~1-line probe run is priced on a mostly-cold
// structure, but it stays ~1 line.
func TestConnScaleDemuxFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-endpoint sweep in -short mode")
	}
	scales := []int{10_000, 1_000_000}
	var runs []StreamResult
	for _, regs := range scales {
		runs = append(runs, shortStream(t, connScaleConfig(regs)))
	}

	top := runs[len(runs)-1]
	drift := top.CyclesPerByte()/runs[0].CyclesPerByte() - 1
	t.Logf("cycles/byte drift 10k->1M: %+.1f%%", drift*100)
	if drift > 0.15 {
		t.Errorf("cycles/byte drifted %.1f%% from 10k to 1M endpoints (budget 15%%)", drift*100)
	}
	if top.DemuxCycles == 0 {
		t.Fatal("1M-endpoint run charged no demux cycles: capacity model is dead")
	}
	t.Logf("demux cycles/host packet at 1M: %.0f", top.DemuxCyclesPerPacket())

	// The memory budget is linear in the registered population: endpoint
	// slabs dominate, so peak bytes scale with the 100x scale step
	// (structure overheads keep the ratio a little off exact).
	ratio := float64(top.Mem.PeakBytes) / float64(runs[0].Mem.PeakBytes)
	t.Logf("peak budget: %d -> %d bytes (%.0fx over a 100x population step)",
		runs[0].Mem.PeakBytes, top.Mem.PeakBytes, ratio)
	if ratio < 80 || ratio > 125 {
		t.Errorf("peak memory budget scaled %.0fx over a 100x population step, want ~100x", ratio)
	}
	for i, regs := range scales {
		if min := uint64(regs) * 2048; runs[i].Mem.PeakBytes < min {
			t.Errorf("peak budget %d below the endpoint slab floor %d at %d endpoints",
				runs[i].Mem.PeakBytes, min, regs)
		}
	}

	// The structure summary at 1M: a populated table reports sane
	// occupancy (robin-hood keeps median probes short even at scale).
	ts := top.Demux
	if ts.Entries < scales[len(scales)-1] || ts.Slots == 0 {
		t.Errorf("table summary at 1M looks empty: %+v", ts)
	}
	if ts.ProbeP50 > 4 {
		t.Errorf("median probe length %d at 1M endpoints; robin-hood should keep it short", ts.ProbeP50)
	}
	if ts.LoadMax > 0.76 {
		t.Errorf("a shard reports load %.2f, over the 3/4 growth threshold", ts.LoadMax)
	}
}

// TestConnScaleSeedingPinned pins a 200k-endpoint connscale point to the
// exact values the per-key registration loop produced before the idle
// population was seeded in one shard-ordered batch. Batch seeding changes
// only the simulator's host work: throughput, cycles, the demux charge,
// the table's structure summary and the memory budget's peak must all
// reproduce bit for bit.
func TestConnScaleSeedingPinned(t *testing.T) {
	res := shortStream(t, connScaleConfig(200_000))
	if res.ThroughputMbps != 3458.996266666667 {
		t.Errorf("throughput %v Mb/s, want 3458.996266666667", res.ThroughputMbps)
	}
	if res.CyclesPerPacket != 10230.22265625 {
		t.Errorf("cycles/packet %v, want 10230.22265625", res.CyclesPerPacket)
	}
	if res.DemuxCycles != 2488225 {
		t.Errorf("demux cycles %d, want 2488225", res.DemuxCycles)
	}
	if res.Mem.PeakBytes != 426377216 {
		t.Errorf("peak budget %d bytes, want 426377216", res.Mem.PeakBytes)
	}
	want := netstack.TableStats{
		Entries:     200_000,
		Slots:       524288,
		Bytes:       16777216,
		DemuxCycles: 86620783,
		LoadMin:     0.381103515625,
		LoadP50:     0.38134765625,
		LoadMax:     0.382080078125,
		ProbeMin:    1,
		ProbeP50:    1,
		ProbeMax:    9,
		ProbeHist:   []uint64{150725, 39218, 8122, 1556, 301, 62, 14, 1, 1},
	}
	if !reflect.DeepEqual(res.Demux, want) {
		t.Errorf("table summary drifted:\n got %+v\nwant %+v", res.Demux, want)
	}
}

// TestConnScaleSetupHostBytes pins the host memory a run of the
// connscale-1m benchmark workload's shape allocates before its first
// frame. Registering the million idle flows dominates it: the demux
// table's slot arrays at 8 bytes a slot, and InsertBatch's scratch at 2
// bytes a key, about 19.2 MB in all. With 10-byte slots it was 23.3 MB;
// the budget sits between the two, so a slot or scratch regression fails
// here. The run is one nanosecond long.
func TestConnScaleSetupHostBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-endpoint set-up in -short mode")
	}
	const budget = 21_000_000
	cfg := connScaleConfig(1_000_000)
	cfg.WarmupNs, cfg.DurationNs = 0, 1
	least := leastRunAlloc(t, cfg)
	t.Logf("connscale-1m set-up allocates %d bytes", least)
	if least > budget {
		t.Errorf("connscale-1m set-up allocated %d bytes, budget %d", least, budget)
	}
}
