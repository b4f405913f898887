package netstack

import (
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/rss"
	"repro/internal/tcp"
)

func testEndpoint(t *testing.T, rPort, lPort uint16) *tcp.Endpoint {
	t.Helper()
	params := cost.NativeUP()
	var m cycles.Meter
	alloc := buf.NewAllocator(&m, &params)
	cfg := tcp.DefaultConfig()
	cfg.LocalIP, cfg.RemoteIP = rcvrIP, senderIP
	cfg.LocalPort, cfg.RemotePort = lPort, rPort
	ep, err := tcp.New(cfg, &m, &params, alloc, func() uint64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func key(rPort, lPort uint16) FlowKey {
	return FlowKey{Src: senderIP, Dst: rcvrIP, SrcPort: rPort, DstPort: lPort}
}

func TestFlowTableInsertLookupRemove(t *testing.T) {
	tab, err := NewFlowTable(8)
	if err != nil {
		t.Fatal(err)
	}
	ep := testEndpoint(t, 5001, 44000)
	k := key(5001, 44000)
	if err := tab.Insert(k, ep); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(k, ep); err == nil {
		t.Error("duplicate insert did not error")
	}
	if got := tab.Lookup(k, 0, 3, true); got != ep {
		t.Fatalf("Lookup returned %v", got)
	}
	s := tab.ShardStatsOf(tab.ShardOf(k))
	if s.Endpoints != 1 || s.HostPackets != 1 || s.NetPackets != 3 || s.Aggregates != 1 {
		t.Errorf("shard stats = %+v", s)
	}
	if tab.Lookup(key(9999, 44000), 0, 1, false) != nil {
		t.Error("lookup of unregistered key succeeded")
	}
	// The NIC-computed hash and the software fallback must resolve to
	// the same shard (both hash the same four-tuple).
	hw := rss.HashTCP4(k.Src, k.Dst, k.SrcPort, k.DstPort)
	if got := tab.Lookup(k, hw, 1, false); got != ep {
		t.Error("hardware-hash lookup did not resolve")
	}
	if !tab.Remove(k) {
		t.Error("remove of registered key failed")
	}
	if tab.Remove(k) {
		t.Error("double remove succeeded")
	}
	if tab.Len() != 0 {
		t.Errorf("Len = %d after remove", tab.Len())
	}
}

// TestFlowTableSharding: thousands of endpoints spread over the shards,
// every key resolves through its own shard, and occupancy is bounded well
// below the flat-map worst case.
func TestFlowTableSharding(t *testing.T) {
	tab, err := NewFlowTable(0) // default shard count
	if err != nil {
		t.Fatal(err)
	}
	const flows = 4096
	ep := testEndpoint(t, 1, 2)
	for i := 0; i < flows; i++ {
		k := FlowKey{
			Src: ipv4.Addr{10, 0, byte(i >> 8), 1}, Dst: rcvrIP,
			SrcPort: uint16(5001 + i), DstPort: uint16(44000 + i%100),
		}
		if err := tab.Insert(k, ep); err != nil {
			t.Fatal(err)
		}
		if tab.Lookup(k, 0, 1, false) != ep {
			t.Fatalf("flow %d did not resolve", i)
		}
	}
	if tab.Len() != flows {
		t.Fatalf("Len = %d, want %d", tab.Len(), flows)
	}
	occ := tab.Occupancy()
	if len(occ) != DefaultFlowShards {
		t.Fatalf("shards = %d", len(occ))
	}
	mean := float64(flows) / float64(len(occ))
	for s, n := range occ {
		if float64(n) > 3*mean {
			t.Errorf("shard %d holds %d flows (mean %.1f): pathological skew", s, n, mean)
		}
	}
}

func TestFlowTableInvalidShards(t *testing.T) {
	for _, bad := range []int{3, -1, 256} {
		if _, err := NewFlowTable(bad); err == nil {
			t.Errorf("NewFlowTable(%d) should fail", bad)
		}
	}
	if _, err := NewSharded(&cycles.Meter{}, paramsPtr(), buf.NewAllocator(&cycles.Meter{}, paramsPtr()), 5); err == nil {
		t.Error("NewSharded with non-power-of-two shards should fail")
	}
}

func paramsPtr() *cost.Params {
	p := cost.NativeUP()
	return &p
}

// TestStackShardedDemux drives the public Stack API end to end over many
// registered endpoints and checks demux goes through the sharded table.
func TestStackShardedDemux(t *testing.T) {
	params := cost.NativeUP()
	var m cycles.Meter
	alloc := buf.NewAllocator(&m, &params)
	st := New(&m, &params, alloc)
	for i := 0; i < 100; i++ {
		ep := testEndpoint(t, uint16(5001+i), 44000)
		if err := st.Register(ep, senderIP, rcvrIP, uint16(5001+i), 44000); err != nil {
			t.Fatal(err)
		}
	}
	if st.Endpoints() != 100 {
		t.Fatalf("Endpoints = %d", st.Endpoints())
	}
	occupied := 0
	for _, n := range st.FlowTable().Occupancy() {
		if n > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Errorf("all 100 flows landed in %d shard(s)", occupied)
	}
	if !st.Unregister(senderIP, rcvrIP, 5001, 44000) {
		t.Error("unregister failed")
	}
	if st.Endpoints() != 99 {
		t.Errorf("Endpoints after unregister = %d", st.Endpoints())
	}
}

func ExampleFlowTable() {
	tab, _ := NewFlowTable(8)
	k := FlowKey{Src: ipv4.Addr{10, 0, 0, 1}, Dst: ipv4.Addr{10, 0, 0, 2}, SrcPort: 5001, DstPort: 44000}
	fmt.Println(tab.ShardOf(k) == tab.ShardOf(k), tab.Len())
	// Output: true 0
}

func TestLookupOnStealAccounting(t *testing.T) {
	tab, err := NewFlowTable(0)
	if err != nil {
		t.Fatal(err)
	}
	tab.SetOwnerQueues(4)
	ep := testEndpoint(t, 5001, 44000)
	k := key(5001, 44000)
	if err := tab.Insert(k, ep); err != nil {
		t.Fatal(err)
	}
	hash := rss.HashTCP4(k.Src, k.Dst, k.SrcPort, k.DstPort)
	owner := rss.QueueOf(hash, 4)
	shard := tab.ShardOf(k)

	// Owner-CPU lookup: no steal.
	if tab.LookupOn(owner, k, hash, 1, false) != ep {
		t.Fatal("owner lookup failed")
	}
	if got := tab.ShardStatsOf(shard).Steals; got != 0 {
		t.Errorf("owner lookup counted %d steals", got)
	}
	// Foreign-CPU lookup: one steal, delivery still succeeds.
	thief := (owner + 1) % 4
	if tab.LookupOn(thief, k, hash, 1, false) != ep {
		t.Fatal("foreign lookup failed")
	}
	if got := tab.ShardStatsOf(shard).Steals; got != 1 {
		t.Errorf("foreign lookup counted %d steals, want 1", got)
	}
	// Unattributed lookups (cpu -1) and disabled accounting never steal.
	if tab.LookupOn(-1, k, hash, 1, false) != ep {
		t.Fatal("unattributed lookup failed")
	}
	tab.SetOwnerQueues(0)
	if tab.LookupOn(thief, k, hash, 1, false) != ep {
		t.Fatal("lookup with accounting disabled failed")
	}
	if got := tab.ShardStatsOf(shard).Steals; got != 1 {
		t.Errorf("steals = %d after unattributed/disabled lookups, want 1", got)
	}
}

// TestTwoListenersOneRemote: one remote address:port bound under two local
// halves (two listeners) demuxes to two endpoints, through shard growth
// and after either key is removed. twinKey's local half hashes like
// diffKey's, so the two keys share a home slot at every table size, and
// every probe for one compares the other.
func TestTwoListenersOneRemote(t *testing.T) {
	twin := twinKey(0)
	if rss.HashLocal(rcvrIP, 8080) != rss.HashLocal(twin.Dst, twin.DstPort) {
		t.Fatal("twinKey's local half does not share diffKey's hash share")
	}
	eps := [2]*tcp.Endpoint{testEndpoint(t, 1024, 8080), testEndpoint(t, 1024, 8151)}
	keys := [2]FlowKey{diffKey(0), twin}
	others := [2]func(int) FlowKey{
		func(i int) FlowKey { return diffKey(1 + i) },
		func(i int) FlowKey { return twinKey(1 + i) },
	}
	for gone := range keys {
		tab, err := NewFlowTable(1) // one shard, so it grows often
		if err != nil {
			t.Fatal(err)
		}
		resolve := func(what string, live [2]bool) {
			t.Helper()
			for i, k := range keys {
				want := eps[i]
				if !live[i] {
					want = nil
				}
				if got := tab.Peek(k); got != want {
					t.Fatalf("key %d removed, %s: Peek(%v) = %p, want %p", gone, what, k, got, want)
				}
				if got := tab.LookupOn(-1, k, 0, 1, false); got != want {
					t.Fatalf("key %d removed, %s: LookupOn(%v) = %p, want %p", gone, what, k, got, want)
				}
			}
			checkOpenInvariants(t, tab)
		}
		grow := func(from, n int) {
			t.Helper()
			for i, more := range others {
				if err := tab.InsertBatch(n, func(j int) FlowKey { return more(from + j) }, eps[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, k := range keys {
			if err := tab.Insert(k, eps[i]); err != nil {
				t.Fatalf("Insert(%v): %v", k, err)
			}
		}
		resolve("both bound", [2]bool{true, true})
		grow(0, 500)
		resolve("after growth", [2]bool{true, true})

		live := [2]bool{true, true}
		live[gone] = false
		if !tab.Remove(keys[gone]) {
			t.Fatalf("Remove(%v) missed", keys[gone])
		}
		if tab.Remove(keys[gone]) {
			t.Fatalf("second Remove(%v) hit", keys[gone])
		}
		resolve("after the remove", live)
		grow(500, 1500)
		resolve("after the remove and growth", live)
		if err := tab.Insert(keys[gone], eps[gone]); err != nil {
			t.Fatalf("re-Insert(%v): %v", keys[gone], err)
		}
		resolve("re-bound", [2]bool{true, true})
	}
}
