package repro

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/netstack"
)

// layoutEquivalent runs cfg under both shard layouts and requires every
// headline quantity to reproduce to 1e-6 relative. Below cache scale the
// capacity model charges zero for either layout, so swapping the shard
// representation must not move a single number: the open-addressed
// default inherits every golden PR 1-5 pinned.
func layoutEquivalent(t *testing.T, name string, cfg StreamConfig) {
	t.Helper()
	cfg.FlowLayout = LayoutOpenAddressed
	open := shortStream(t, cfg)
	cfg.FlowLayout = LayoutSeedMap
	seed := shortStream(t, cfg)
	quantities := []struct {
		what       string
		open, seed float64
	}{
		{"throughput", open.ThroughputMbps, seed.ThroughputMbps},
		{"cpu util", open.CPUUtil, seed.CPUUtil},
		{"cycles/packet", open.CyclesPerPacket, seed.CyclesPerPacket},
		{"agg factor", open.AggFactor, seed.AggFactor},
		{"frames", float64(open.Frames), float64(seed.Frames)},
		{"host packets", float64(open.HostPackets), float64(seed.HostPackets)},
		{"torn down", float64(open.FlowsTornDown), float64(seed.FlowsTornDown)},
		{"tw entered", float64(open.TimeWait.Entered), float64(seed.TimeWait.Entered)},
	}
	for _, q := range quantities {
		if relDiff(q.open, q.seed) > 1e-6 {
			t.Errorf("%s: %s diverged across layouts: open=%v, map=%v",
				name, q.what, q.open, q.seed)
		}
	}
	if open.DemuxCycles != 0 || seed.DemuxCycles != 0 {
		t.Errorf("%s: sub-cache run charged demux cycles: open=%d, map=%d",
			name, open.DemuxCycles, seed.DemuxCycles)
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestFlowLayoutGoldenEquivalence runs every golden shape under both
// layouts. The map baseline is the seed-era structure, so equality here
// proves every shape reproduces with the open-addressed layout on
// (TestGoldenShapes separately pins the absolute results). The connscale
// shapes set their layout themselves (one of them to the default, so the
// config cannot tell) and are recognized by their registered population:
// above cache scale the two layouts price demux differently by design.
func TestFlowLayoutGoldenEquivalence(t *testing.T) {
	for name, cfg := range goldenShapes() {
		if cfg.RegisteredFlows != 0 {
			continue
		}
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			layoutEquivalent(t, name, cfg)
		})
	}
}

// connScaleConfig is the connscale sweep point: a small active subset
// demuxing against a large registered population.
func connScaleConfig(layout FlowLayout, registered int) StreamConfig {
	cfg := DefaultStreamConfig(SystemNativeUP, OptNone)
	cfg.NICs = 4
	cfg.Connections = 64
	cfg.FlowSkew = 1.1
	cfg.FlowLayout = layout
	cfg.RegisteredFlows = registered
	return cfg
}

// TestConnScaleDemuxFlat is the tentpole acceptance check: growing the
// registered population 10k -> 1M, the open-addressed layout's total
// cycles/byte stays flat (<=15% drift) while the map baseline's demux
// charge grows to several times the open layout's — the dependent-line
// chase of a Go-map lookup priced on a mostly-cold structure versus the
// open layout's ~1-line probe run.
func TestConnScaleDemuxFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-endpoint sweep in -short mode")
	}
	scales := []int{10_000, 1_000_000}
	run := func(layout FlowLayout) []StreamResult {
		var out []StreamResult
		for _, regs := range scales {
			out = append(out, shortStream(t, connScaleConfig(layout, regs)))
		}
		return out
	}
	open, seed := run(LayoutOpenAddressed), run(LayoutSeedMap)

	drift := func(rs []StreamResult) float64 {
		return rs[len(rs)-1].CyclesPerByte()/rs[0].CyclesPerByte() - 1
	}
	openDrift, seedDrift := drift(open), drift(seed)
	t.Logf("cycles/byte drift 10k->1M: open %+.1f%%, map %+.1f%%",
		openDrift*100, seedDrift*100)
	if openDrift > 0.15 {
		t.Errorf("open layout drifted %.1f%% from 10k to 1M endpoints (budget 15%%)",
			openDrift*100)
	}
	if seedDrift <= openDrift {
		t.Errorf("map baseline (%.1f%%) did not degrade past the open layout (%.1f%%)",
			seedDrift*100, openDrift*100)
	}

	openTop, seedTop := open[len(open)-1], seed[len(seed)-1]
	if openTop.DemuxCycles == 0 || seedTop.DemuxCycles == 0 {
		t.Fatal("1M-endpoint runs charged no demux cycles: capacity model is dead")
	}
	openCPP, seedCPP := openTop.DemuxCyclesPerPacket(), seedTop.DemuxCyclesPerPacket()
	t.Logf("demux cycles/host packet at 1M: open %.0f, map %.0f", openCPP, seedCPP)
	if seedCPP < 2.5*openCPP {
		t.Errorf("map demux charge at 1M (%.0f c/pkt) is not >=2.5x the open layout's (%.0f)",
			seedCPP, openCPP)
	}

	// The memory budget is linear in the registered population: endpoint
	// slabs dominate, so peak bytes scale with the 100x scale step
	// (structure overheads keep the ratio a little off exact).
	ratio := float64(openTop.Mem.PeakBytes) / float64(open[0].Mem.PeakBytes)
	t.Logf("peak budget: %d -> %d bytes (%.0fx over a 100x population step)",
		open[0].Mem.PeakBytes, openTop.Mem.PeakBytes, ratio)
	if ratio < 80 || ratio > 125 {
		t.Errorf("peak memory budget scaled %.0fx over a 100x population step, want ~100x", ratio)
	}
	for i, regs := range scales {
		if min := uint64(regs) * 2048; open[i].Mem.PeakBytes < min {
			t.Errorf("peak budget %d below the endpoint slab floor %d at %d endpoints",
				open[i].Mem.PeakBytes, min, regs)
		}
	}

	// The structure summary at 1M: a populated open table reports sane
	// occupancy (robin-hood keeps median probes short even at scale).
	ts := openTop.Demux
	if ts.Entries < scales[len(scales)-1] || ts.Slots == 0 {
		t.Errorf("open table summary at 1M looks empty: %+v", ts)
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
	res := shortStream(t, connScaleConfig(LayoutOpenAddressed, 200_000))
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
		Layout:      LayoutOpenAddressed,
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
