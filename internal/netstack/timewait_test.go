package netstack

import (
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/tcp"
)

// twRig is a stack with a handful of registered endpoints for driving
// the TIME_WAIT table directly.
type twRig struct {
	stack *Stack
	meter *cycles.Meter
	keys  []FlowKey
}

func newTWRig(t *testing.T, flows int) *twRig {
	t.Helper()
	var m cycles.Meter
	params := cost.NativeUP()
	alloc := buf.NewAllocator(&m, &params)
	r := &twRig{stack: New(&m, &params, alloc), meter: &m}
	for i := 0; i < flows; i++ {
		remote := ipv4.Addr{10, 0, byte(i / 200), 1}
		local := ipv4.Addr{10, 0, byte(i / 200), 2}
		rp, lp := uint16(5001+i%200), uint16(44000+i%200)
		cfg := tcp.DefaultConfig()
		cfg.LocalIP, cfg.RemoteIP = local, remote
		cfg.LocalPort, cfg.RemotePort = lp, rp
		ep, err := tcp.New(cfg, &m, &params, alloc, func() uint64 { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		if err := r.stack.Register(ep, remote, local, rp, lp); err != nil {
			t.Fatal(err)
		}
		r.keys = append(r.keys, FlowKey{Src: remote, Dst: local, SrcPort: rp, DstPort: lp})
	}
	return r
}

func (r *twRig) enter(i int, deadline uint64) bool {
	k := r.keys[i]
	return r.stack.EnterTimeWait(k.Src, k.Dst, k.SrcPort, k.DstPort, deadline)
}

func TestTimeWaitEnterReap(t *testing.T) {
	r := newTWRig(t, 3)
	if !r.enter(0, 8_000_000) || !r.enter(1, 9_000_000) {
		t.Fatal("EnterTimeWait refused a registered flow")
	}
	if r.enter(0, 20_000_000) {
		t.Error("duplicate EnterTimeWait accepted")
	}
	k := FlowKey{Src: ipv4.Addr{1, 2, 3, 4}, Dst: ipv4.Addr{5, 6, 7, 8}, SrcPort: 1, DstPort: 2}
	if r.stack.EnterTimeWait(k.Src, k.Dst, k.SrcPort, k.DstPort, 8_000_000) {
		t.Error("EnterTimeWait accepted an unregistered flow")
	}
	if got := r.stack.TimeWaitStats().Len; got != 2 {
		t.Fatalf("TIME_WAIT length = %d, want 2", got)
	}
	if r.stack.Endpoints() != 3 {
		t.Fatalf("demux entries dropped early: %d", r.stack.Endpoints())
	}

	// Before any deadline tick elapses nothing reaps.
	if got := r.stack.ReapTimeWait(5_000_000); len(got) != 0 {
		t.Fatalf("premature reap of %d entries", len(got))
	}
	// The 8 ms entry's tick has fully elapsed at 9.5 ms; the 9 ms one
	// has not (reaping is quantized to the 1 ms tick).
	got := r.stack.ReapTimeWait(9_500_000)
	if len(got) != 1 || got[0] != r.keys[0] {
		t.Fatalf("reap at 9.5ms = %v, want [%v]", got, r.keys[0])
	}
	if r.stack.Endpoints() != 2 {
		t.Errorf("reap did not unregister the demux entry")
	}
	got = r.stack.ReapTimeWait(12_000_000)
	if len(got) != 1 || got[0] != r.keys[1] {
		t.Fatalf("second reap = %v, want [%v]", got, r.keys[1])
	}
	st := r.stack.TimeWaitStats()
	if st.Entered != 2 || st.Reaped != 2 || st.Len != 0 || st.Peak != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestTimeWaitShardsLazy: the shard array waits for the first insert, so
// a stack that tears no flow down carries none of it, and every reader
// answers from the stored shard count until then.
func TestTimeWaitShardsLazy(t *testing.T) {
	r := newTWRig(t, 1)
	r.stack.ConfigureTimeWait(1000, false)
	k := r.keys[0]
	if r.stack.TimeWaitHas(k.Src, k.Dst, k.SrcPort, k.DstPort) ||
		r.stack.ReuseTimeWait(k.Src, k.Dst, k.SrcPort, k.DstPort, 1, 1) != ReuseNone ||
		len(r.stack.ReapTimeWait(50_000_000)) != 0 {
		t.Error("an empty TIME_WAIT table reported an entry")
	}
	occ := r.stack.TimeWaitOccupancy()
	if r.stack.tw.shards != nil || len(occ) != r.stack.table.Shards() {
		t.Fatalf("before any insert: %d shards allocated, occupancy over %d; want 0, %d",
			len(r.stack.tw.shards), len(occ), r.stack.table.Shards())
	}
	if want := (1000 + len(occ) - 1) / len(occ); r.stack.tw.maxPerShard != want {
		t.Errorf("per-shard cap %d, want %d", r.stack.tw.maxPerShard, want)
	}
	if !r.enter(0, 60_000_000) || len(r.stack.tw.shards) != len(occ) {
		t.Fatalf("first insert: %d shards, want %d", len(r.stack.tw.shards), len(occ))
	}
	if !r.stack.TimeWaitHas(k.Src, k.Dst, k.SrcPort, k.DstPort) {
		t.Error("entered flow not found")
	}
}

// TestTimeWaitLongLinger: a deadline more than 32 ms out reaps neither
// early nor late, whether the sweeps before it run every 5 ms or one
// sweep comes long after the last. One shard holds all three entries,
// so the earliest one's sweep is also the later ones' last sweep.
func TestTimeWaitLongLinger(t *testing.T) {
	r := newPressureRig(t, 1, 3, 0, false)
	r.enter(0, 2_000_000)
	r.enter(1, 70_000_000)
	r.enter(2, 70_400_000)
	if got := r.stack.ReapTimeWait(5_000_000); len(got) != 1 || got[0] != r.keys[0] {
		t.Fatalf("first reap = %v, want [%v]", got, r.keys[0])
	}
	// 65 ms after the last sweep, both deadlines are past but their tick
	// has not elapsed.
	if got := r.stack.ReapTimeWait(70_500_000); len(got) != 0 {
		t.Fatalf("reap after a 65 ms gap = %v, want none before the 70 ms tick elapses", got)
	}
	for now := uint64(70_600_000); now < 71_000_000; now += 100_000 {
		if got := r.stack.ReapTimeWait(now); len(got) != 0 {
			t.Fatalf("reap at %dns = %v, want none", now, got)
		}
	}
	if got := r.stack.ReapTimeWait(71_000_000); len(got) != 2 {
		t.Fatalf("reap at 71ms = %v, want both 70 ms entries", got)
	}
}

// TestTimeWaitReapOrder: entries inserted out of deadline order reap in
// deadline order, ties in insertion order, both within a 5 ms sweep and
// across a sweep more than 32 ms after the last.
func TestTimeWaitReapOrder(t *testing.T) {
	r := newPressureRig(t, 1, 6, 0, false)
	for i, d := range []uint64{60_000_000, 3_000_000, 72_000_000, 3_000_000, 60_000_000, 3_500_000} {
		if !r.enter(i, d) {
			t.Fatalf("EnterTimeWait(%d) refused", i)
		}
	}
	for _, step := range []struct {
		now  uint64
		want []int
	}{{4_000_000, []int{1, 3, 5}}, {100_000_000, []int{0, 4, 2}}} {
		got := r.stack.ReapTimeWait(step.now)
		want := make([]FlowKey, len(step.want))
		for i, k := range step.want {
			want[i] = r.keys[k]
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("reap at %dns = %v, want flows %v in that order", step.now, got, step.want)
		}
	}
	if n := r.stack.TimeWaitStats().Len; n != 0 {
		t.Errorf("%d entries linger after every deadline passed", n)
	}
}

// TestTimeWaitReapFarBehind: a sweep arriving long after many deadlines
// (stalled timer) must still reclaim everything in one pass, shard by
// shard in deadline order.
func TestTimeWaitReapFarBehind(t *testing.T) {
	r := newTWRig(t, 40)
	deadline := make(map[FlowKey]uint64)
	for i, k := range r.keys {
		deadline[k] = uint64(1_000_000 + i*500_000)
		r.enter(i, deadline[k])
	}
	got := r.stack.ReapTimeWait(320_000_000)
	if len(got) != 40 {
		t.Fatalf("far-behind reap reclaimed %d of 40", len(got))
	}
	for i := 1; i < len(got); i++ {
		prev, k := got[i-1], got[i]
		ps, s := r.stack.table.ShardOf(prev), r.stack.table.ShardOf(k)
		if ps > s || ps == s && deadline[prev] > deadline[k] {
			t.Fatalf("reap %d (shard %d, deadline %d) follows shard %d, deadline %d",
				i, s, deadline[k], ps, deadline[prev])
		}
	}
	if n := r.stack.TimeWaitStats().Len; n != 0 {
		t.Errorf("lingering after full reap: %d", n)
	}
}

func TestTimeWaitReuse(t *testing.T) {
	r := newTWRig(t, 2)
	// Feed the endpoint a data segment so its TS.Recent is non-zero: the
	// teardown snapshot the admissibility check compares against.
	ep := r.stack.FlowTable().Peek(r.keys[0])
	ep.Input(tcp.Segment{
		Hdr: seg(1, 1, 4000).Hdr, Payloads: [][]byte{make([]byte, 1448)},
		FragAcks: []uint32{1}, NetPackets: 1,
	})
	r.enter(0, 8_000_000)

	k := r.keys[0]
	// Same-millisecond reconnect: timestamp not strictly newer → refused.
	if v := r.stack.ReuseTimeWait(k.Src, k.Dst, k.SrcPort, k.DstPort, 1, 4000); v != ReuseRefused {
		t.Fatalf("same-ts reuse = %v, want refused", v)
	}
	// A later millisecond: granted; the demux entry must be gone so the
	// four-tuple is immediately registrable.
	if v := r.stack.ReuseTimeWait(k.Src, k.Dst, k.SrcPort, k.DstPort, 1, 4001); v != ReuseGranted {
		t.Fatalf("newer-ts reuse = %v, want granted", v)
	}
	if r.stack.TimeWaitHas(k.Src, k.Dst, k.SrcPort, k.DstPort) {
		t.Error("entry still lingering after granted reuse")
	}
	if r.stack.FlowTable().Peek(k) != nil {
		t.Error("stale demux entry survived reuse")
	}
	// No lingering entry: a fresh four-tuple reports ReuseNone.
	if v := r.stack.ReuseTimeWait(k.Src, k.Dst, k.SrcPort, k.DstPort, 1, 5000); v != ReuseNone {
		t.Fatalf("reuse on free tuple = %v, want none", v)
	}
	st := r.stack.TimeWaitStats()
	if st.Reused != 1 || st.ReuseRefused != 1 || st.Len != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Entered != st.Reaped+st.Reused+uint64(st.Len) {
		t.Errorf("accounting broken: %+v", st)
	}
	// The reused entry left the table: no later reap returns it.
	if got := r.stack.ReapTimeWait(20_000_000); len(got) != 0 {
		t.Errorf("reused entry reaped: %v", got)
	}
}

// seg builds a minimal in-order data segment header for feeding TS state.
func seg(seqNum, ack uint32, tsVal uint32) tcp.Segment {
	var s tcp.Segment
	s.Hdr.Seq = seqNum
	s.Hdr.Ack = ack
	s.Hdr.Flags = 0x10 // ACK
	s.Hdr.Window = 65535
	s.Hdr.HasTimestamp = true
	s.Hdr.TSVal = tsVal
	return s
}

// TestTimeWaitSeededBacklog: seeded entries (restart-storm backlog) age,
// reap and account like real ones; a duplicate seed is refused; reaping
// them never disturbs live demux entries.
func TestTimeWaitSeededBacklog(t *testing.T) {
	r := newTWRig(t, 1)
	const n = 5000
	for i := 0; i < n; i++ {
		k := FlowKey{
			Src:     ipv4.Addr{172, 16, byte(i >> 8), byte(i)},
			Dst:     ipv4.Addr{10, 0, 0, 2},
			SrcPort: uint16(10000 + i%50000), DstPort: 80,
		}
		deadline := uint64(2_000_000 + (i%20)*1_000_000)
		if !r.stack.SeedTimeWait(k, deadline, 100, 1) {
			t.Fatalf("seed %d refused", i)
		}
		if r.stack.SeedTimeWait(k, deadline, 100, 1) {
			t.Fatalf("duplicate seed %d accepted", i)
		}
	}
	if got := r.stack.TimeWaitStats().Len; got != n {
		t.Fatalf("TIME_WAIT length = %d, want %d", got, n)
	}
	// Occupancy spreads over the shards (the whole point of sharding).
	occ := r.stack.TimeWaitOccupancy()
	nonEmpty := 0
	for _, c := range occ {
		if c > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(occ)/2 {
		t.Errorf("backlog concentrated in %d/%d shards", nonEmpty, len(occ))
	}
	reaped := 0
	for now := uint64(0); now <= 30_000_000; now += 5_000_000 {
		reaped += len(r.stack.ReapTimeWait(now))
		st := r.stack.TimeWaitStats()
		if st.Entered != st.Reaped+st.Reused+uint64(st.Len) {
			t.Fatalf("accounting broken at %dns: %+v", now, st)
		}
	}
	if reaped != n {
		t.Errorf("reaped %d of %d seeded entries", reaped, n)
	}
	if r.stack.Endpoints() != 1 {
		t.Errorf("seeded reap disturbed live endpoints: %d", r.stack.Endpoints())
	}
}

// TestTimeWaitChargesScaleWithTouches: an insert/reap cycle charges the
// memory-model touches of the entry — and the charge is independent of
// how many other entries linger (the O(1) claim, measured in modeled
// cycles rather than asserted).
func TestTimeWaitChargesScaleWithTouches(t *testing.T) {
	measure := func(backlog int) uint64 {
		r := newTWRig(t, 2)
		for i := 0; i < backlog; i++ {
			k := FlowKey{Src: ipv4.Addr{172, 16, byte(i >> 8), byte(i)},
				Dst: ipv4.Addr{10, 0, 0, 2}, SrcPort: uint16(i), DstPort: 80}
			r.stack.SeedTimeWait(k, 64_000_000, 0, 1)
		}
		before := r.meter.Get(cycles.NonProto)
		r.enter(0, 2_000_000)
		r.stack.ReapTimeWait(4_000_000)
		return r.meter.Get(cycles.NonProto) - before
	}
	lone, crowded := measure(0), measure(20000)
	if lone == 0 {
		t.Fatal("insert/reap cycle charged nothing")
	}
	if crowded != lone {
		t.Errorf("insert+reap charge depends on backlog: %d vs %d cycles", lone, crowded)
	}
}
