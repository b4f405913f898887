package netstack

import (
	"math/rand"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/rss"
	"repro/internal/tcp"
)

// diffKey generates the i'th four-tuple of the differential key space:
// unique remote hosts across a private range, a spread of source ports,
// one local listener — the addressing shape of a million-endpoint server.
func diffKey(i int) FlowKey {
	return FlowKey{
		Src:     ipv4.Addr{10, byte(64 + i>>16), byte(i >> 8), byte(i)},
		Dst:     rcvrIP,
		SrcPort: uint16(1024 + i%60000),
		DstPort: 8080,
	}
}

// refTable is the oracle the differential tests hold a FlowTable to: a
// plain map from key to endpoint, plus the per-shard counters derived from
// their definitions — a key's shard is its RSS hash's (rss.ShardOf), its
// owning CPU is the hash's queue (rss.QueueOf over queues, 0 = no
// ownership accounting), and a delivery counts where the table says it
// does.
type refTable struct {
	eps    map[FlowKey]*tcp.Endpoint
	shards []ShardStats
	queues int
}

func newRefTable(shards, queues int) *refTable {
	return &refTable{eps: make(map[FlowKey]*tcp.Endpoint), shards: make([]ShardStats, shards), queues: queues}
}

func (r *refTable) shard(k FlowKey) *ShardStats {
	return &r.shards[rss.ShardOf(k.Hash(), len(r.shards))]
}

// insert binds k to ep unless k is bound, reporting whether it was.
func (r *refTable) insert(k FlowKey, ep *tcp.Endpoint) (dup bool) {
	if _, dup = r.eps[k]; !dup {
		r.eps[k] = ep
		r.shard(k).Endpoints++
	}
	return dup
}

// remove unbinds k, reporting whether it was bound.
func (r *refTable) remove(k FlowKey) bool {
	_, present := r.eps[k]
	if present {
		delete(r.eps, k)
		r.shard(k).Endpoints--
	}
	return present
}

// lookupOn is FlowTable.LookupOn's definition.
func (r *refTable) lookupOn(cpu int, k FlowKey, netPackets int, aggregated bool) *tcp.Endpoint {
	s := r.shard(k)
	if cpu >= 0 && r.queues > 0 && rss.QueueOf(k.Hash(), r.queues) != cpu {
		s.Steals++
	}
	ep := r.eps[k]
	if ep == nil {
		s.Misses++
		return nil
	}
	s.HostPackets++
	s.NetPackets += uint64(netPackets)
	if aggregated {
		s.Aggregates++
	}
	return ep
}

// check requires tab to agree with the oracle: Len, every key's Peek,
// and each shard's occupancy and counters.
func (r *refTable) check(t testing.TB, what string, tab *FlowTable, keys []FlowKey) {
	t.Helper()
	if tab.Len() != len(r.eps) {
		t.Fatalf("%s: Len %d, reference %d", what, tab.Len(), len(r.eps))
	}
	for i, k := range keys {
		if got := tab.Peek(k); got != r.eps[k] {
			t.Fatalf("%s: Peek(key %d) = %p, reference %p", what, i, got, r.eps[k])
		}
	}
	occ := tab.Occupancy()
	for s, want := range r.shards {
		if occ[s] != want.Endpoints {
			t.Fatalf("%s: shard %d occupancy %d, reference %d", what, s, occ[s], want.Endpoints)
		}
		if got := tab.ShardStatsOf(s); got != want {
			t.Fatalf("%s: shard %d stats:\n got %+v\nwant %+v", what, s, got, want)
		}
	}
}

// TestFlowTableDifferential drives the table and the plain-map oracle
// with one seeded-random interleaving of inserts, removes and attributed
// lookups over >100k keys, and requires them to agree exactly at every
// observation point: duplicate/missing verdicts, per-key resolution,
// table length, per-shard occupancy and the full per-shard counter set
// (hits, misses, aggregates, steals).
func TestFlowTableDifferential(t *testing.T) {
	const nKeys = 120_000
	const shards = 64
	tab, err := NewFlowTable(shards)
	if err != nil {
		t.Fatal(err)
	}
	// Deliveries are attributed to 4 softirq CPUs so steal accounting is
	// exercised (and must match) too.
	tab.SetOwnerQueues(4)
	ref := newRefTable(shards, 4)

	ep := testEndpoint(t, 5001, 44000)
	keys := make([]FlowKey, nKeys)
	for i := range keys {
		keys[i] = diffKey(i)
	}

	insert := func(i int) {
		err := tab.Insert(keys[i], ep)
		if dup := ref.insert(keys[i], ep); (err != nil) != dup {
			t.Fatalf("Insert(key %d) err=%v, reference duplicate=%v", i, err, dup)
		}
	}
	remove := func(i int) {
		if got, want := tab.Remove(keys[i]), ref.remove(keys[i]); got != want {
			t.Fatalf("Remove(key %d) = %v, reference %v", i, got, want)
		}
	}
	lookup := func(rng *rand.Rand, i int) {
		cpu := rng.Intn(4)
		np := 1 + rng.Intn(4)
		agg := rng.Intn(2) == 0
		if got, want := tab.LookupOn(cpu, keys[i], 0, np, agg), ref.lookupOn(cpu, keys[i], np, agg); got != want {
			t.Fatalf("LookupOn(key %d) = %p, reference %p", i, got, want)
		}
	}

	rng := rand.New(rand.NewSource(20080607))
	// Phase 1: bulk registration in shuffled order (every key, plus
	// duplicate attempts sprinkled in).
	order := rng.Perm(nKeys)
	for n, i := range order {
		insert(i)
		if n%1000 == 0 {
			insert(i) // duplicate attempt
		}
	}
	ref.check(t, "after bulk insert", tab, keys)

	// Phase 2: a long random interleaving of lookups (hits and misses),
	// removes and re-inserts over the whole key space.
	for op := 0; op < 150_000; op++ {
		i := rng.Intn(nKeys)
		switch r := rng.Intn(10); {
		case r < 5:
			lookup(rng, i)
		case r < 8:
			remove(i)
		default:
			insert(i)
		}
	}
	ref.check(t, "after interleaved ops", tab, keys)

	// Phase 3: drain most of the population (backward-shift deletes at
	// scale), then verify the survivors still resolve.
	for i := 0; i < nKeys; i++ {
		if i%8 != 0 {
			remove(i)
		}
	}
	ref.check(t, "after drain", tab, keys)

	if tab.StructBytes() == 0 {
		t.Error("table reports no structure footprint")
	}
	ts := tab.TableStats()
	if ts.Entries != tab.Len() || ts.Slots == 0 || ts.ProbeMax < ts.ProbeP50 {
		t.Errorf("TableStats inconsistent: %+v", ts)
	}
}

// checkOpenInvariants verifies the table's structural invariants
// slot by slot: every resident entry lives in the shard its key's hash
// selects, its recorded probe distance is exactly its displacement from
// the home slot (both derived from key.Hash()), robin-hood ordering holds
// (an entry at distance d>1 has a predecessor at distance >= d-1, so no
// lookup can early-exit past a live key), no shard exceeds 3/4 load, and
// the per-shard used counts sum to Len.
func checkOpenInvariants(t *testing.T, tab *FlowTable) {
	t.Helper()
	total := 0
	var slotBytes uint64
	for si := range tab.shards {
		s := &tab.shards[si]
		if len(s.slots) == 0 {
			if s.used != 0 {
				t.Errorf("shard %d: used=%d with no slots", si, s.used)
			}
			continue
		}
		slotBytes += uint64(len(s.slots)) * FlowSlotBytes
		if len(s.slots)&(len(s.slots)-1) != 0 {
			t.Errorf("shard %d: slot count %d not a power of two", si, len(s.slots))
		}
		if s.used*4 > len(s.slots)*3 {
			t.Errorf("shard %d: %d/%d slots used exceeds 3/4 load", si, s.used, len(s.slots))
		}
		mask := uint32(len(s.slots) - 1)
		used := 0
		for j := range s.slots {
			sl := s.slots[j]
			if sl.dist == 0 {
				continue
			}
			used++
			h := sl.key.Hash()
			if own := rss.ShardOf(h, len(tab.shards)); own != si {
				t.Errorf("shard %d slot %d: key belongs to shard %d", si, j, own)
			}
			home := slotIndexHash(h) & mask
			wantDist := ((uint32(j) - home) & mask) + 1
			if uint32(sl.dist) != wantDist {
				t.Errorf("shard %d slot %d: dist=%d, actual displacement %d",
					si, j, sl.dist, wantDist)
			}
			if sl.dist > 1 {
				if prev := s.slots[(uint32(j)-1)&mask]; prev.dist < sl.dist-1 {
					t.Errorf("shard %d slot %d: robin-hood order broken (dist %d after %d)",
						si, j, sl.dist, prev.dist)
				}
			}
		}
		if used != s.used {
			t.Errorf("shard %d: used=%d but %d slots occupied", si, s.used, used)
		}
		total += used
	}
	if total != tab.Len() {
		t.Errorf("occupied slots %d != Len %d", total, tab.Len())
	}
	if slotBytes != tab.StructBytes() {
		t.Errorf("slot arrays hold %d bytes but StructBytes=%d", slotBytes, tab.StructBytes())
	}
}

// TestFlowOpenRobinHoodInvariants grows shards through multiple
// doublings, punches random holes with backward-shift deletes, refills,
// and checks the full invariant set after every phase.
func TestFlowOpenRobinHoodInvariants(t *testing.T) {
	tab, err := NewFlowTable(8)
	if err != nil {
		t.Fatal(err)
	}
	ep := testEndpoint(t, 5001, 44000)
	rng := rand.New(rand.NewSource(1))
	const n = 50_000
	for i := 0; i < n; i++ {
		if err := tab.Insert(diffKey(i), ep); err != nil {
			t.Fatal(err)
		}
	}
	checkOpenInvariants(t, tab)

	removed := make([]bool, n)
	for _, i := range rng.Perm(n)[:n/2] {
		if !tab.Remove(diffKey(i)) {
			t.Fatalf("Remove(key %d) failed", i)
		}
		removed[i] = true
	}
	checkOpenInvariants(t, tab)
	for i := 0; i < n; i++ {
		got := tab.Peek(diffKey(i))
		if (got != nil) == removed[i] {
			t.Fatalf("after deletes, Peek(key %d) hit=%v, want %v", i, got != nil, !removed[i])
		}
	}

	for i := n; i < n+10_000; i++ {
		if err := tab.Insert(diffKey(i), ep); err != nil {
			t.Fatal(err)
		}
	}
	checkOpenInvariants(t, tab)
}
