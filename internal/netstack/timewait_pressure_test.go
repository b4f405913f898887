package netstack

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/tcp"
)

// newPressureRig builds a twRig over a stack with an explicit shard
// count, so tcp_max_tw_buckets splits into a known per-shard cap
// (shards=1 makes the cap global and every admission deterministic).
func newPressureRig(t *testing.T, shards, flows, maxBuckets int) *twRig {
	t.Helper()
	var m cycles.Meter
	params := cost.NativeUP()
	alloc := buf.NewAllocator(&m, &params)
	st, err := NewSharded(&m, &params, alloc, shards)
	if err != nil {
		t.Fatal(err)
	}
	st.ConfigureTimeWait(maxBuckets)
	r := &twRig{stack: st, meter: &m}
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
		if err := st.Register(ep, remote, local, rp, lp); err != nil {
			t.Fatal(err)
		}
		r.keys = append(r.keys, FlowKey{Src: remote, Dst: local, SrcPort: rp, DstPort: lp})
	}
	return r
}

// twInvariant checks the table's conservation law: everything that ever
// entered is accounted for by exactly one exit path or still lingers.
func twInvariant(t *testing.T, st *Stack, stage string) {
	t.Helper()
	s := st.TimeWaitStats()
	if s.Entered != s.Reaped+s.Reused+s.Evicted+uint64(s.Len) {
		t.Errorf("%s: Entered=%d != Reaped=%d + Reused=%d + Evicted=%d + Len=%d",
			stage, s.Entered, s.Reaped, s.Reused, s.Evicted, s.Len)
	}
}

// TestTimeWaitPressureRefusal pins the Linux-default over-cap behavior:
// at tcp_max_tw_buckets the new entry is refused ("time wait bucket
// table overflow") — the closing flow skips TIME_WAIT entirely, nothing
// already lingering is disturbed, and the refusal is counted.
func TestTimeWaitPressureRefusal(t *testing.T) {
	r := newPressureRig(t, 1, 6, 4)
	for i := 0; i < 4; i++ {
		if !r.enter(i, uint64(8_000_000+i*1_000_000)) {
			t.Fatalf("EnterTimeWait(%d) refused below the cap", i)
		}
	}
	for i := 4; i < 6; i++ {
		if r.enter(i, 20_000_000) {
			t.Fatalf("EnterTimeWait(%d) admitted over the cap", i)
		}
	}
	s := r.stack.TimeWaitStats()
	if s.Len != 4 || s.Entered != 4 || s.PressureRefused != 2 || s.Evicted != 0 {
		t.Errorf("stats after refusals = %+v", s)
	}
	// The refused flow never entered TIME_WAIT: it is not lingering, and
	// its demux registration is untouched (the caller tears it down).
	k := r.keys[4]
	if r.stack.TimeWaitHas(k.Src, k.Dst, k.SrcPort, k.DstPort) {
		t.Error("refused flow is lingering in TIME_WAIT")
	}
	if r.stack.FlowTable().Peek(k) == nil {
		t.Error("refusal unregistered the flow")
	}
	twInvariant(t, r.stack, "after refusals")

	// Reaping drains the cap: the next entry is admitted again.
	if got := len(r.stack.ReapTimeWait(13_000_000)); got != 4 {
		t.Fatalf("reap returned %d keys, want 4", got)
	}
	if !r.enter(4, 30_000_000) {
		t.Error("EnterTimeWait refused after the reap freed the table")
	}
	twInvariant(t, r.stack, "after reap")
}

// TestTimeWaitPressurePerShardSplit verifies the cap is a per-shard
// share of tcp_max_tw_buckets (like the kernel's per-chain pressure): no
// shard ever holds more than ceil(max/shards), and every attempt is
// accounted as admitted or refused.
func TestTimeWaitPressurePerShardSplit(t *testing.T) {
	const flows, maxBuckets, shards = 64, 8, 4
	r := newPressureRig(t, shards, flows, maxBuckets)
	perShard := (maxBuckets + shards - 1) / shards
	admitted := 0
	for i := 0; i < flows; i++ {
		if r.enter(i, 50_000_000) {
			admitted++
		}
	}
	for i, occ := range r.stack.TimeWaitOccupancy() {
		if occ > perShard {
			t.Errorf("shard %d holds %d entries, per-shard cap is %d", i, occ, perShard)
		}
	}
	s := r.stack.TimeWaitStats()
	if int(s.Entered) != admitted || int(s.Entered+s.PressureRefused) != flows {
		t.Errorf("admitted %d of %d, stats = %+v", admitted, flows, s)
	}
	if admitted == 0 || admitted > maxBuckets {
		t.Errorf("admitted %d entries under a %d-bucket cap", admitted, maxBuckets)
	}
	twInvariant(t, r.stack, "after split fill")
}

// TestTimeWaitPressureSeededBacklog verifies seeded (restart-storm)
// entries count against the same cap as real teardowns.
func TestTimeWaitPressureSeededBacklog(t *testing.T) {
	r := newPressureRig(t, 1, 2, 3)
	for i := 0; i < 3; i++ {
		k := FlowKey{Src: ipv4.Addr{10, 9, 0, 1}, Dst: ipv4.Addr{10, 9, 0, 2},
			SrcPort: uint16(7000 + i), DstPort: 80}
		if !r.stack.SeedTimeWait(k, uint64(5_000_000+i*1_000_000), 1, 1) {
			t.Fatalf("SeedTimeWait(%d) refused below the cap", i)
		}
	}
	// A real teardown over the cap is refused, and no seeded entry is
	// disturbed.
	if r.enter(0, 30_000_000) {
		t.Fatal("EnterTimeWait over a seeded-full table was admitted")
	}
	s := r.stack.TimeWaitStats()
	if s.PressureRefused != 1 || s.Len != 3 || s.Entered != 3 {
		t.Errorf("stats after seeded refusal = %+v", s)
	}
	twInvariant(t, r.stack, "seeded backlog")
}
