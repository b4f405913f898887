package netstack

import (
	"math/rand"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/rss"
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

// TestFlowLayoutDifferential drives the open-addressed and seed-map
// layouts with an identical seeded-random interleaving of inserts,
// removes and attributed lookups over >100k keys, and requires them to
// agree exactly at every observation point: duplicate/missing verdicts,
// per-key resolution, table length, per-shard occupancy and the full
// per-shard counter set (hits, misses, aggregates, steals). The open
// layout is a pure representation change; any behavioral divergence from
// the seed-map baseline is a bug.
func TestFlowLayoutDifferential(t *testing.T) {
	const nKeys = 120_000
	const shards = 64
	open, err := NewFlowTableLayout(shards, LayoutOpenAddressed)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := NewFlowTableLayout(shards, LayoutSeedMap)
	if err != nil {
		t.Fatal(err)
	}
	// Both tables attribute deliveries to 4 softirq CPUs so steal
	// accounting is exercised (and must match) too.
	open.SetQueues(4)
	seed.SetQueues(4)

	ep := testEndpoint(t, 5001, 44000)
	keys := make([]FlowKey, nKeys)
	for i := range keys {
		keys[i] = diffKey(i)
	}
	present := make([]bool, nKeys)

	insert := func(i int) {
		e1 := open.Insert(keys[i], ep)
		e2 := seed.Insert(keys[i], ep)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("Insert(key %d) diverged: open err=%v, map err=%v", i, e1, e2)
		}
		if e1 == nil {
			present[i] = true
		} else if !present[i] {
			t.Fatalf("Insert(key %d) reported duplicate but key is absent", i)
		}
	}
	remove := func(i int) {
		r1 := open.Remove(keys[i])
		r2 := seed.Remove(keys[i])
		if r1 != r2 {
			t.Fatalf("Remove(key %d) diverged: open=%v, map=%v", i, r1, r2)
		}
		if r1 != present[i] {
			t.Fatalf("Remove(key %d) = %v, want %v", i, r1, present[i])
		}
		present[i] = false
	}
	lookup := func(rng *rand.Rand, i int) {
		cpu := rng.Intn(4)
		np := 1 + rng.Intn(4)
		agg := rng.Intn(2) == 0
		p1 := open.LookupOn(cpu, keys[i], 0, np, agg)
		p2 := seed.LookupOn(cpu, keys[i], 0, np, agg)
		if p1 != p2 {
			t.Fatalf("LookupOn(key %d) diverged: open=%p, map=%p", i, p1, p2)
		}
		if (p1 != nil) != present[i] {
			t.Fatalf("LookupOn(key %d) hit=%v, want %v", i, p1 != nil, present[i])
		}
	}
	check := func(stage string) {
		t.Helper()
		if open.Len() != seed.Len() {
			t.Fatalf("%s: Len diverged: open=%d, map=%d", stage, open.Len(), seed.Len())
		}
		occ1, occ2 := open.Occupancy(), seed.Occupancy()
		for s := range occ1 {
			if occ1[s] != occ2[s] {
				t.Fatalf("%s: shard %d occupancy diverged: open=%d, map=%d",
					stage, s, occ1[s], occ2[s])
			}
			if s1, s2 := open.ShardStatsOf(s), seed.ShardStatsOf(s); s1 != s2 {
				t.Fatalf("%s: shard %d stats diverged:\nopen: %+v\nmap:  %+v", stage, s, s1, s2)
			}
		}
		for i, k := range keys {
			o, m := open.Peek(k), seed.Peek(k)
			if o != m || (o != nil) != present[i] {
				t.Fatalf("%s: Peek(key %d) diverged: open=%p, map=%p, want present=%v",
					stage, i, o, m, present[i])
			}
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
	check("after bulk insert")

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
	check("after interleaved ops")

	// Phase 3: drain most of the population (backward-shift deletes at
	// scale), then verify the survivors still resolve.
	for i := 0; i < nKeys; i++ {
		if i%8 != 0 {
			remove(i)
		}
	}
	check("after drain")

	if open.StructBytes() == 0 || seed.StructBytes() == 0 {
		t.Errorf("layouts report no structure footprint: open=%d, map=%d",
			open.StructBytes(), seed.StructBytes())
	}
	ts := open.TableStats()
	if ts.Entries != open.Len() || ts.Slots == 0 || ts.ProbeMax < ts.ProbeP50 {
		t.Errorf("open TableStats inconsistent: %+v", ts)
	}
}

// checkOpenInvariants verifies the open layout's structural invariants
// slot by slot: every resident entry lives in the shard its key's hash
// selects, its recorded probe distance is exactly its displacement from
// the home slot (both derived from hashOf(key)), robin-hood ordering holds
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
			h := hashOf(sl.key)
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
	tab, err := NewFlowTableLayout(8, LayoutOpenAddressed)
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

// TestFlowLayoutParse pins the CLI names and their round-trip through
// the text marshaling the JSON reports use.
func TestFlowLayoutParse(t *testing.T) {
	cases := []struct {
		in   string
		want FlowLayout
	}{
		{"open", LayoutOpenAddressed},
		{"", LayoutOpenAddressed},
		{"map", LayoutSeedMap},
		{"seed", LayoutSeedMap},
	}
	for _, c := range cases {
		got, err := ParseFlowLayout(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseFlowLayout(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseFlowLayout("cuckoo"); err == nil {
		t.Error("ParseFlowLayout(cuckoo) did not error")
	}
	for _, l := range []FlowLayout{LayoutOpenAddressed, LayoutSeedMap} {
		b, err := l.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back FlowLayout
		if err := back.UnmarshalText(b); err != nil || back != l {
			t.Errorf("round-trip of %v through %q gave %v, %v", l, b, back, err)
		}
	}
	if _, err := NewFlowTableLayout(8, FlowLayout(7)); err == nil {
		t.Error("NewFlowTableLayout with bogus layout did not error")
	}
}
