package sim

import (
	"fmt"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/frontend"
)

// engineAggSum sums the machine's per-engine aggregation counters.
func engineAggSum(m *frontend.FrontEnd) aggregate.Stats {
	var sum aggregate.Stats
	for _, rp := range m.ReceivePaths() {
		sum = sum.Add(rp.Engine().Stats())
	}
	return sum
}

// heldFramesOf sums frames currently parked in resequencing windows.
func heldFramesOf(rps []*core.ReceivePath) int {
	n := 0
	for _, rp := range rps {
		n += rp.Engine().HeldFrames()
	}
	return n
}

// TestReorderWindowProperty is the reordering-tolerance property test:
// under link-level frame displacement (adjacent swaps and k-distance
// displacement) — on the native and the paravirtual machine — every flow
// must deliver the pattern stream to the application byte-exact and in
// order, the window must actually engage (frames held and stitched), and
// no held frame may leak: every frame that entered a window is accounted
// as stitched, drained or still parked at every mid-burst checkpoint.
func TestReorderWindowProperty(t *testing.T) {
	cases := []struct {
		oneIn, dist int
	}{
		{8, 1},  // dense adjacent swaps
		{16, 3}, // sparser 3-distance displacement
	}
	for _, sys := range []SystemKind{SystemNativeUP, SystemXen} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%v/oneIn%d-dist%d", sys, c.oneIn, c.dist), func(t *testing.T) {
				runReorderPropertyCase(t, sys, c.oneIn, c.dist)
			})
		}
	}
}

func runReorderPropertyCase(t *testing.T, sys SystemKind, oneIn, dist int) {
	cfg := DefaultStreamConfig(sys, OptFull)
	cfg.NICs = 2
	cfg.Connections = 8
	cfg.Queues = 2
	cfg.ReorderWindow = 4
	cfg.Reorder = ReorderConfig{OneIn: oneIn, Distance: dist}
	cfg.DurationNs = 20_000_000
	cfg.WarmupNs = 10_000_000
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-exact in-order verification of every flow's delivered stream.
	type verify struct {
		pos uint32
		bad int
	}
	states := make([]*verify, len(top.machine.Endpoints()))
	for i, ep := range top.machine.Endpoints() {
		v := &verify{pos: 1} // default IRS: first payload byte's sequence
		states[i] = v
		ep.AppSink = func(b []byte) {
			want := make([]byte, len(b))
			PatternPayload(v.pos, want)
			for j := range b {
				if b[j] != want[j] {
					v.bad++
				}
			}
			v.pos += uint32(len(b))
		}
	}

	// Mid-burst, repeatedly check that global window accounting balances
	// while frames are still parked in the resequencing windows.
	m := top.machine
	checkpoints := 0
	var checkpoint func()
	checkpoint = func() {
		checkpoints++
		agg := engineAggSum(m)
		if held := uint64(heldFramesOf(m.ReceivePaths())); agg.Held != agg.Stitched+agg.WindowTimeout+held {
			t.Errorf("window accounting broken at checkpoint %d: held=%d stitched=%d drained=%d parked=%d",
				checkpoints, agg.Held, agg.Stitched, agg.WindowTimeout, held)
		}
		if top.sim.Now() < 18_000_000 {
			top.sim.After(400_000, checkpoint)
		}
	}
	top.sim.After(11_000_000, checkpoint)
	top.sim.RunUntil(cfg.WarmupNs + cfg.DurationNs)

	if checkpoints == 0 {
		t.Fatal("no checkpoint ever fired")
	}
	var reordered uint64
	for _, l := range top.links {
		reordered += l.Stats().Reordered
	}
	if reordered == 0 {
		t.Fatal("injector never displaced a frame: property is vacuous")
	}
	for i := range states {
		if states[i].bad != 0 {
			t.Errorf("endpoint %d: %d bytes deviated from the in-order pattern", i, states[i].bad)
		}
		if states[i].pos == 1 {
			t.Errorf("endpoint %d delivered nothing", i)
		}
	}

	// The window engaged and, after a final drain, every held frame is
	// accounted: Held = Stitched + WindowTimeout exactly, nothing parked,
	// no SKB leaked.
	for _, rp := range m.ReceivePaths() {
		rp.Engine().FlushAll()
	}
	agg := engineAggSum(m)
	if agg.Held == 0 || agg.Stitched == 0 {
		t.Errorf("window never engaged: held=%d stitched=%d", agg.Held, agg.Stitched)
	}
	if agg.Held != agg.Stitched+agg.WindowTimeout {
		t.Errorf("held frames leaked: held=%d stitched=%d drained=%d",
			agg.Held, agg.Stitched, agg.WindowTimeout)
	}
	if got := heldFramesOf(m.ReceivePaths()); got != 0 {
		t.Errorf("%d frames still parked after full flush", got)
	}
}
