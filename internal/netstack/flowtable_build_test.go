package netstack

import (
	"fmt"
	"math"
	"testing"
)

// The tests here drive the paths of InsertBatch's shard build
// (shardBuild) that a batch of diffKeys into the default table rarely or
// never takes, each against the serial loop with requireTablesEqual.

// oneShardKeys returns keys diffKey(base), diffKey(base+1), … as a key
// function.
func oneShardKeys(base int) func(int) FlowKey {
	return func(i int) FlowKey { return diffKey(base + i) }
}

// checkOneShard runs n keys of key through the serial loop and through
// InsertBatch, each into a fresh single-shard table, and requires the two
// tables be indistinguishable.
func checkOneShard(t *testing.T, what string, n int, key func(int) FlowKey) {
	t.Helper()
	ep := testEndpoint(t, 5001, 44000)
	serial, batch, ms, mb := pricedPair(t, 1, 64)
	errS := serialInserts(serial, n, key, ep)
	errB := batch.InsertBatch(n, key, ep)
	if errS != nil || errB != nil {
		t.Fatalf("%s: errors: serial %v, batch %v", what, errS, errB)
	}
	requireTablesEqual(t, what, serial, batch, ms, mb)
	checkOpenInvariants(t, batch)
}

// growthDisplaces reports whether doubling s, re-putting its residents in
// old-slot order as openGrow does, makes one of them displace another:
// only a resident that wrapped past the old array's end, and is re-put
// first, can sit nearer its home than a later one passing it.
func growthDisplaces(s *flowShard, eps []epRef) bool {
	mask := uint32(2*len(s.slots) - 1)
	dists := make([]uint32, 2*len(s.slots))
	for i := range s.slots {
		if s.slots[i].ref == 0 {
			continue
		}
		j := slotIndexHash(s.slots[i].hash(eps)) & mask
		for d := uint32(1); dists[j] != 0; d++ {
			if dists[j] < d {
				return true
			}
			j = (j + 1) & mask
		}
		dists[j] = probeDist(j, s.slots[i].hash(eps), mask)
	}
	return false
}

// TestInsertBatchGrowthDisplaces: a single-shard batch whose in-place
// growth must displace a resident, so the growth's robin-hood fallback
// runs, not only its straight placement at the first empty slot. The key
// run is found by inserting serially until a due growth would displace.
func TestInsertBatchGrowthDisplaces(t *testing.T) {
	for base := 0; base < 1<<16; base += 64 {
		tab, err := NewFlowTable(1)
		if err != nil {
			t.Fatal(err)
		}
		ep := testEndpoint(t, 5001, 44000)
		s := &tab.shards[0]
		for i := 0; i < 64; i++ {
			if len(s.slots) > 0 && openSlotsFor(len(s.slots), s.used) != len(s.slots) && growthDisplaces(s, tab.eps) {
				checkOneShard(t, fmt.Sprintf("base %d, growth at key %d", base, i), i+1, oneShardKeys(base))
				return
			}
			if err := tab.Insert(diffKey(base+i), ep); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Fatal("no key run grows a shard through a displacement")
}

// TestInsertBatchProbeWraps: single-shard batches in which a put's probe
// run wraps past the end of the slot array, so a key lands before its home
// slot.
func TestInsertBatchProbeWraps(t *testing.T) {
	found := 0
	for base := 0; base < 1<<16 && found < 4; base += 64 {
		tab, err := NewFlowTable(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.InsertBatch(48, oneShardKeys(base), testEndpoint(t, 5001, 44000)); err != nil {
			t.Fatal(err)
		}
		s := &tab.shards[0]
		mask := uint32(len(s.slots) - 1)
		wraps := false
		for j := range s.slots {
			if sl := &s.slots[j]; sl.ref != 0 && uint32(j) < slotIndexHash(sl.hash(tab.eps))&mask {
				wraps = true
			}
		}
		if wraps {
			checkOneShard(t, fmt.Sprintf("base %d", base), 48, oneShardKeys(base))
			found++
		}
	}
	if found == 0 {
		t.Fatal("no key run wraps a probe past the end of the array")
	}
}

// TestShardBuildSaturatedDistances: a hand-built shard whose distance
// scratch holds the saturated value for every resident, as a shard with a
// pile-up past math.MaxUint16 would, takes the same puts and growths as
// the serial loop: each saturated distance is derived from the home
// scratch. The table starts from 40 serial inserts into one shard; the
// build then inserts 200 more keys, through several growths, pricing each
// one by Insert's own rule, and the result must equal 240 serial inserts.
func TestShardBuildSaturatedDistances(t *testing.T) {
	const before, more = 40, 200
	key := oneShardKeys(0)
	ep := testEndpoint(t, 5001, 44000)
	serial, built, ms, mb := pricedPair(t, 1, 64)
	if err := serialInserts(serial, before+more, key, ep); err != nil {
		t.Fatal(err)
	}
	if err := serialInserts(built, before, key, ep); err != nil {
		t.Fatal(err)
	}

	s := &built.shards[0]
	const widest = 512
	b := shardBuild{
		dists:  make([]uint16, widest),
		homes:  make([]uint32, widest),
		staged: make([]stagedSlot, 0, widest),
	}
	slots := make([]flowSlot, len(s.slots), widest)
	copy(slots, s.slots)
	var hist probeHist
	b.begin(slots, s.used, built.eps, &hist)
	// saturate marks every resident's distance saturated, and returns how
	// many it marked.
	saturate := func() int {
		marked := 0
		for j, d := range b.dists[:len(b.slots)] {
			if d != 0 {
				b.dists[j] = math.MaxUint16
				marked++
			}
		}
		return marked
	}
	if marked := saturate(); marked != before {
		t.Fatalf("saturated %d distances, want %d", marked, before)
	}
	ref := built.newest
	for i := before; i < before+more; i++ {
		k := key(i)
		slotsBefore, usedBefore := len(b.slots), b.used
		if n := openSlotsFor(slotsBefore, usedBefore); n != slotsBefore {
			b.grow(n)
		}
		// Every put and growth records real distances; saturate them all
		// again before the next put walks them.
		saturate()
		probes, ok := b.put(slotIndexHash(k.Hash()), k.Src, k.SrcPort, ref, built.eps)
		if !ok {
			t.Fatalf("key %d: put reports a duplicate", i)
		}
		built.eps[ref].refs++
		built.priceOpenInsert(s, slotsBefore, usedBefore, probes)
	}
	s.slots, s.used = b.end(&hist), b.used
	built.hist.merge(&hist)
	requireTablesEqual(t, "saturated scratch", serial, built, ms, mb)
	checkOpenInvariants(t, built)

	// A duplicate is still found at its saturated distance, and changes
	// nothing.
	saturate()
	for i := range before + more {
		k := key(i)
		if _, ok := b.put(slotIndexHash(k.Hash()), k.Src, k.SrcPort, ref, built.eps); ok {
			t.Fatalf("key %d: put of a resident key succeeded", i)
		}
	}
	requireTablesEqual(t, "saturated scratch after duplicates", serial, built, ms, mb)
}
