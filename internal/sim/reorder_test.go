package sim

import (
	"fmt"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/netstack"
	"repro/internal/rss"
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
// displacement) *combined with* repeated mid-burst steering migrations —
// on the native and the paravirtual machine — every flow must deliver the
// pattern stream to the application byte-exact and in order, the window
// must actually engage (frames held and stitched), and no held frame may
// leak: every frame that entered a window is accounted as stitched or
// drained, including across every FlushWhere migration handoff.
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

	// Mid-burst, repeatedly migrate the first flow's bucket between the
	// CPUs: rewrites are guaranteed to land while the old CPU still holds
	// frames (ring, raw queue, and — with the injector running — the
	// resequencing window), exercising the FlushWhere window drain.
	victim := netstack.FlowKey{
		Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2},
		SrcPort: 5001, DstPort: 44000,
	}
	hash := rss.HashTCP4(victim.Src, victim.Dst, victim.SrcPort, victim.DstPort)
	bucket := rss.Bucket(hash)
	m := top.machine
	migrations := 0
	var migrate func()
	migrate = func() {
		owner := m.FlowTable().OwnerOf(victim, hash)
		m.SteerBucket(bucket, (owner+1)%m.CPUs())
		migrations++
		// The handoff must never strand a held frame of the migrated
		// bucket on the losing CPU: the drain is part of SteerBucket, so
		// global accounting stays balanced at every migration point.
		agg := engineAggSum(m)
		if held := uint64(heldFramesOf(m.ReceivePaths())); agg.Held != agg.Stitched+agg.WindowTimeout+held {
			t.Errorf("window accounting broken after migration %d: held=%d stitched=%d drained=%d parked=%d",
				migrations, agg.Held, agg.Stitched, agg.WindowTimeout, held)
		}
		if top.sim.Now() < 18_000_000 {
			top.sim.After(400_000, migrate)
		}
	}
	top.sim.After(11_000_000, migrate)
	top.sim.RunUntil(cfg.WarmupNs + cfg.DurationNs)

	if migrations == 0 {
		t.Fatal("no migration ever fired")
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
