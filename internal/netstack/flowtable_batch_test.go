package netstack

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/tcp"
)

// pricedPair builds two identical priced tables, each with its own meter,
// whose capacity model's cache holds cacheBytes. At 64 bytes, one line,
// every structural touch charges however small the table, so equal meters
// mean equal charges, not two runs of zeros.
func pricedPair(t testing.TB, shards int, cacheBytes uint64) (a, b *FlowTable, ma, mb *cycles.Meter) {
	t.Helper()
	p := cost.NativeUP()
	p.Mem.CacheBytes = cacheBytes
	ma, mb = &cycles.Meter{}, &cycles.Meter{}
	var err error
	if a, err = NewFlowTable(shards); err != nil {
		t.Fatal(err)
	}
	if b, err = NewFlowTable(shards); err != nil {
		t.Fatal(err)
	}
	a.SetPricing(ma, &p)
	b.SetPricing(mb, &p)
	return a, b, ma, mb
}

// serialInserts is the reference InsertBatch must reproduce: n Inserts in
// index order, stopping at the first error.
func serialInserts(tab *FlowTable, n int, key func(int) FlowKey, ep *tcp.Endpoint) error {
	for i := 0; i < n; i++ {
		if err := tab.Insert(key(i), ep); err != nil {
			return err
		}
	}
	return nil
}

// requireTablesEqual demands two tables be indistinguishable: every
// shard's slots element by element, occupancy and counters, the endpoint
// slab (every live handle's entry, the free list and the newest handle),
// the table's length, footprint and demux cycles, the meters' snapshots
// and the structure summaries.
func requireTablesEqual(t testing.TB, what string, a, b *FlowTable, ma, mb *cycles.Meter) {
	t.Helper()
	if len(a.shards) != len(b.shards) {
		t.Fatalf("%s: shard counts %d vs %d", what, len(a.shards), len(b.shards))
	}
	for si := range a.shards {
		sa, sb := &a.shards[si], &b.shards[si]
		if len(sa.slots) != len(sb.slots) || sa.used != sb.used {
			t.Fatalf("%s: shard %d holds %d/%d slots vs %d/%d", what, si,
				sa.used, len(sa.slots), sb.used, len(sb.slots))
		}
		for j := range sa.slots {
			if sa.slots[j] != sb.slots[j] {
				t.Fatalf("%s: shard %d slot %d differs: %+v vs %+v", what, si, j, sa.slots[j], sb.slots[j])
			}
		}
		if sa.stats != sb.stats {
			t.Fatalf("%s: shard %d stats differ: %+v vs %+v", what, si, sa.stats, sb.stats)
		}
	}
	if len(a.eps) != len(b.eps) || a.newest != b.newest || !slices.Equal(a.free, b.free) {
		t.Fatalf("%s: slabs differ: %d vs %d handles, newest %d vs %d, %d vs %d free", what,
			len(a.eps), len(b.eps), a.newest, b.newest, len(a.free), len(b.free))
	}
	for h := range a.eps {
		if ea, eb := a.eps[h], b.eps[h]; (ea.refs > 0 || eb.refs > 0) && ea != eb {
			t.Fatalf("%s: handle %d differs: %+v vs %+v", what, h, ea, eb)
		}
	}
	if a.Len() != b.Len() || a.StructBytes() != b.StructBytes() || a.DemuxCycles() != b.DemuxCycles() {
		t.Fatalf("%s: len/bytes/demux %d/%d/%d vs %d/%d/%d", what,
			a.Len(), a.StructBytes(), a.DemuxCycles(), b.Len(), b.StructBytes(), b.DemuxCycles())
	}
	if ma.Snapshot() != mb.Snapshot() {
		t.Fatalf("%s: meters differ:\n%v\n%v", what, ma.Snapshot(), mb.Snapshot())
	}
	if ta, tb := a.TableStats(), b.TableStats(); !reflect.DeepEqual(ta, tb) {
		t.Fatalf("%s: table stats differ:\n%+v\n%+v", what, ta, tb)
	}
}

// prefillActive registers 64 active flows, as the stream workloads do
// before seeding their idle population.
func prefillActive(t testing.TB, tab *FlowTable, ep *tcp.Endpoint) {
	t.Helper()
	for i := 0; i < 64; i++ {
		if err := tab.Insert(key(uint16(5001+i), 44000), ep); err != nil {
			t.Fatal(err)
		}
	}
}

// checkBatchMatchesSerial runs the reference loop on one table and
// InsertBatch on the other, both prefilled with the active flows, and
// requires equal errors and indistinguishable tables, with a one-line
// cache.
func checkBatchMatchesSerial(t *testing.T, what string, n int, keyOf func(int) FlowKey) {
	t.Helper()
	checkBatchMatchesSerialAt(t, what, 64, n, keyOf)
}

// checkBatchMatchesSerialAt is checkBatchMatchesSerial with a cache of
// cacheBytes.
func checkBatchMatchesSerialAt(t *testing.T, what string, cacheBytes uint64, n int, keyOf func(int) FlowKey) {
	t.Helper()
	ep := testEndpoint(t, 5001, 44000)
	serial, batch, ms, mb := pricedPair(t, 0, cacheBytes)
	prefillActive(t, serial, ep)
	prefillActive(t, batch, ep)
	errS := serialInserts(serial, n, keyOf, ep)
	errB := batch.InsertBatch(n, keyOf, ep)
	if fmt.Sprint(errS) != fmt.Sprint(errB) {
		t.Fatalf("%s: errors differ: serial %v, batch %v", what, errS, errB)
	}
	requireTablesEqual(t, what, serial, batch, ms, mb)
}

// midBatchCache returns a cache size the footprint crosses partway
// through a batch of n diffKeys after the active prefill: halfway between
// the footprints before and after the batch.
func midBatchCache(t *testing.T, n int) uint64 {
	t.Helper()
	tab, err := NewFlowTable(0)
	if err != nil {
		t.Fatal(err)
	}
	ep := testEndpoint(t, 5001, 44000)
	prefillActive(t, tab, ep)
	before := tab.StructBytes()
	if err := tab.InsertBatch(n, diffKey, ep); err != nil {
		t.Fatal(err)
	}
	return (before + tab.StructBytes()) / 2
}

// TestInsertBatchMatchesSerial is the batch ≡ serial contract: a batch is
// indistinguishable from n Inserts in index order, down to every slot and
// every charged cycle, at sizes from empty to the connscale population.
// Each size runs twice: with a one-line cache, which the footprint
// outgrows at the first key, and with one the footprint outgrows partway
// through the batch, so keys before and after the crossing price at
// different footprint epochs.
func TestInsertBatchMatchesSerial(t *testing.T) {
	sizes := []int{0, 1, 7, 1000, 100_000}
	if !testing.Short() {
		sizes = append(sizes, 1_000_000)
	}
	for _, n := range sizes {
		checkBatchMatchesSerial(t, fmt.Sprintf("n=%d", n), n, diffKey)
		cache := midBatchCache(t, n)
		checkBatchMatchesSerialAt(t, fmt.Sprintf("n=%d cache=%d", n, cache), cache, n, diffKey)
	}
}

// TestInsertBatchDuplicates: a duplicate stops the batch exactly where
// the reference loop stops, with the keys before it registered and the
// same error, whether the duplicate repeats an earlier batch key or a
// resident key.
func TestInsertBatchDuplicates(t *testing.T) {
	const n = 5000
	inBatch := func(i int) FlowKey {
		if i == 3210 {
			return diffKey(17)
		}
		return diffKey(i)
	}
	resident := func(i int) FlowKey {
		if i == 777 {
			return key(5001+20, 44000) // one of the prefilled active flows
		}
		return diffKey(i)
	}
	checkBatchMatchesSerial(t, "in-batch dup", n, inBatch)
	checkBatchMatchesSerial(t, "resident dup", n, resident)
	checkBatchMatchesSerial(t, "dup at 0", n, func(int) FlowKey { return key(5001, 44000) })

	// A duplicate in the third grouping block: key 140,000 repeats a key
	// of the first block, or a resident key.
	const big, late = 150_000, 140_000
	checkBatchMatchesSerial(t, "later-block dup of key 10", big, func(i int) FlowKey {
		if i == late {
			return diffKey(10)
		}
		return diffKey(i)
	})
	checkBatchMatchesSerial(t, "later-block resident dup", big, func(i int) FlowKey {
		if i == late {
			return key(5001+20, 44000)
		}
		return diffKey(i)
	})

	// The batch finds a duplicate in the put itself, which grows the
	// shard first if the insert would. Each shape repeats one of the
	// first m keys as key m.
	const m = 3000
	for _, sh := range dupShapes(t, m) {
		checkBatchMatchesSerial(t, "dup "+sh.name, m+1, func(i int) FlowKey {
			if i == m {
				return diffKey(sh.j)
			}
			return diffKey(i)
		})
	}
}

// TestInsertBatchLocalRuns: a batch whose local half changes opens a run
// at each change and binds each run's keys under the handle the serial
// loop would take, down to the slab, whether the halves alternate, come
// back, change at a grouping-block boundary or at a duplicate. twinKey's
// local half hashes like diffKey's, so every run's keys share home slots
// with the other's: keys of one remote half under both local halves are
// two registrations, not a duplicate.
func TestInsertBatchLocalRuns(t *testing.T) {
	const n = 5000
	halves := func(twin func(i int) bool) func(int) FlowKey {
		return func(i int) FlowKey {
			if twin(i) {
				return twinKey(i)
			}
			return diffKey(i)
		}
	}
	checkBatchMatchesSerial(t, "two halves", n, halves(func(i int) bool { return i >= n/2 }))
	checkBatchMatchesSerial(t, "alternating every 7", n, halves(func(i int) bool { return i/7%2 == 1 }))
	checkBatchMatchesSerial(t, "back to the first half", n, halves(func(i int) bool { return i >= n/3 && i < 2*n/3 }))
	checkBatchMatchesSerial(t, "change at a block boundary", batchBlock+100, halves(func(i int) bool { return i >= batchBlock }))
	// One remote half under two local halves that differ in both, in the
	// address alone or in the port alone.
	for _, other := range []struct {
		name string
		key  func(int) FlowKey
	}{
		{"twinKey", twinKey},
		{"another address", func(i int) FlowKey { k := diffKey(i); k.Dst = ipv4.Addr{10, 0, 0, 3}; return k }},
		{"another port", func(i int) FlowKey { k := diffKey(i); k.DstPort++; return k }},
	} {
		both := func(i int) FlowKey {
			if i >= n {
				return other.key(i - n)
			}
			return diffKey(i)
		}
		what := "one remote half under diffKey and " + other.name
		checkBatchMatchesSerial(t, what, 2*n, both)
		// Every key registers and resolves, after the active prefill.
		ep := testEndpoint(t, 5001, 44000)
		tab, err := NewFlowTable(0)
		if err != nil {
			t.Fatal(err)
		}
		prefillActive(t, tab, ep)
		if err := tab.InsertBatch(2*n, both, ep); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i := 0; i < 2*n; i++ {
			if got := tab.Peek(both(i)); got != ep {
				t.Fatalf("%s: key %d resolves to %p, want %p", what, i, got, ep)
			}
		}
		checkOpenInvariants(t, tab)
	}
	checkBatchMatchesSerial(t, "duplicate that opens a run", n, func(i int) FlowKey {
		switch {
		case i == 3000:
			return diffKey(17)
		case i >= 2000:
			return twinKey(i)
		}
		return diffKey(i)
	})
	checkBatchMatchesSerial(t, "duplicate inside a later run", n, func(i int) FlowKey {
		switch {
		case i == 3000:
			return twinKey(2500)
		case i >= 2000:
			return twinKey(i)
		}
		return diffKey(i)
	})
}

// TestInsertBatchRunHandles: a batch's runs take freed handles, most
// recently freed first, then new ones, as the serial loop does; with the
// slab full, the first run that needs a handle stops the batch at its
// first key with ErrTooManyEndpoints (or as a duplicate, if that key is
// one), the keys before it registered.
func TestInsertBatchRunHandles(t *testing.T) {
	// Runs of 100 keys under alternating local halves.
	alternating := func(i int) FlowKey {
		if i/100%2 == 1 {
			return twinKey(i)
		}
		return diffKey(i)
	}
	eps := make([]tcp.Endpoint, 6) // only their addresses matter
	serial, batch, ms, mb := pricedPair(t, 0, 64)
	for _, tab := range []*FlowTable{serial, batch} {
		for e := range eps[1:] {
			if err := tab.Insert(diffKey(100_000+e), &eps[1+e]); err != nil {
				t.Fatal(err)
			}
		}
		tab.Remove(diffKey(100_001))
		tab.Remove(diffKey(100_003))
	}
	errS := serialInserts(serial, 450, alternating, &eps[0])
	errB := batch.InsertBatch(450, alternating, &eps[0])
	if errS != nil || errB != nil {
		t.Fatalf("errors: serial %v, batch %v", errS, errB)
	}
	requireTablesEqual(t, "freed handles", serial, batch, ms, mb)
	checkSlab(t, "freed handles", batch)

	full := make([]tcp.Endpoint, MaxEndpoints-2)
	for _, tail := range []struct {
		name string
		key  func(int) FlowKey
	}{
		{"full slab", alternating},
		{"full slab, duplicate run start", func(i int) FlowKey {
			if i == 300 {
				return twinKey(150) // registered by run 1
			}
			return alternating(i)
		}},
	} {
		serial, batch, ms, mb := pricedPair(t, 0, 64)
		for _, tab := range []*FlowTable{serial, batch} {
			for e := range full {
				if err := tab.Insert(diffKey(100_000+e), &full[e]); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Run 0 shares the newest handle, runs 1 and 2 take the last two,
		// and run 3 finds none.
		last := &full[len(full)-1]
		errS := serialInserts(serial, 450, tail.key, last)
		errB := batch.InsertBatch(450, tail.key, last)
		if fmt.Sprint(errS) != fmt.Sprint(errB) || errS == nil {
			t.Fatalf("%s: errors: serial %v, batch %v", tail.name, errS, errB)
		}
		if dup := tail.name != "full slab"; dup == errors.Is(errB, ErrTooManyEndpoints) {
			t.Fatalf("%s: err = %v", tail.name, errB)
		}
		if batch.Len() != len(full)+300 {
			t.Fatalf("%s: %d keys registered, want %d", tail.name, batch.Len(), len(full)+300)
		}
		requireTablesEqual(t, tail.name, serial, batch, ms, mb)
		checkSlab(t, tail.name, batch)
	}
}

// dupShape names a key j < m whose repeat as key m exercises one path of
// the batch's duplicate check.
type dupShape struct {
	name string
	j    int
}

// dupShapes registers the active flows and diffKey(0..m-1) one by one and
// picks, for each shape, the first key that has it once all m are in:
//
//   - in a grown shard: its shard grew (rehashed) after it was
//     registered;
//   - behind a displaced run: a lookup of it probes past at least two
//     other entries first, and its shard will not grow on the repeat;
//   - that grows its shard: the repeat's insert grows its shard, which
//     the batch does before its put finds the first copy.
func dupShapes(t *testing.T, m int) []dupShape {
	t.Helper()
	tab, err := NewFlowTable(0)
	if err != nil {
		t.Fatal(err)
	}
	ep := testEndpoint(t, 5001, 44000)
	prefillActive(t, tab, ep)
	slotsAt := make([]int, m)
	for j := range slotsAt {
		k := diffKey(j)
		if err := tab.Insert(k, ep); err != nil {
			t.Fatal(err)
		}
		slotsAt[j] = len(tab.shards[tab.ShardOf(k)].slots)
	}
	shapes := []dupShape{{"in a grown shard", -1}, {"behind a displaced run", -1}, {"that grows its shard", -1}}
	for j := 0; j < m; j++ {
		k := diffKey(j)
		s := &tab.shards[tab.ShardOf(k)]
		_, probes := s.openLookup(k.Hash(), k, tab.eps)
		grows := openSlotsFor(len(s.slots), s.used) != len(s.slots)
		for i, has := range []bool{slotsAt[j] < len(s.slots), probes >= 3 && !grows, grows} {
			if has && shapes[i].j < 0 {
				shapes[i].j = j
			}
		}
	}
	for _, sh := range shapes {
		if sh.j < 0 {
			t.Fatalf("no key among the first %d is %s", m, sh.name)
		}
	}
	return shapes
}

// TestInsertBatchThenMutate: a batch-built table behaves like an
// Insert-built one afterwards too — later inserts grow it, removes
// backward-shift it, and the robin-hood invariants hold throughout.
func TestInsertBatchThenMutate(t *testing.T) {
	ep := testEndpoint(t, 5001, 44000)
	serial, batch, ms, mb := pricedPair(t, 16, 64)
	if err := serialInserts(serial, 20_000, diffKey, ep); err != nil {
		t.Fatal(err)
	}
	if err := batch.InsertBatch(20_000, diffKey, ep); err != nil {
		t.Fatal(err)
	}
	checkOpenInvariants(t, batch)
	for i := 0; i < 20_000; i += 3 {
		serial.Remove(diffKey(i))
		batch.Remove(diffKey(i))
	}
	more := func(i int) FlowKey { return diffKey(20_000 + i) }
	if err := serialInserts(serial, 30_000, more, ep); err != nil {
		t.Fatal(err)
	}
	if err := batch.InsertBatch(30_000, more, ep); err != nil {
		t.Fatal(err)
	}
	checkOpenInvariants(t, batch)
	requireTablesEqual(t, "after remove and second batch", serial, batch, ms, mb)
}

// allocTries is how many times allocated calls its function.
const allocTries = 3

// allocated returns the fewest bytes, by runtime.MemStats.TotalAlloc, that
// any of allocTries calls of f allocates. Other goroutines' allocations
// only add to a reading, so the fewest is f's own.
func allocated(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var least uint64
	for try := 0; try < allocTries; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; try == 0 || d < least {
			least = d
		}
	}
	return least
}

// heapBytes returns what allocating n values of type T adds to TotalAlloc:
// the request rounded up to the allocator's size class, or to whole pages
// for a large object.
func heapBytes[T any](n int) uint64 {
	return allocated(func() { runtime.KeepAlive(make([]T, n)) })
}

// TestInsertBatchHostBytes pins what a batch allocates on the host. A
// 100k-key batch, two grouping blocks, into a fresh default table
// allocates exactly:
//
//   - one slab holding every shard's final slot array, at 8 bytes a slot;
//   - 2 bytes of scratch per key (its offset in its block's shard group)
//     and 1 byte per key of one block (the block's shards);
//   - the per-(block, shard) start table, one word more than blocks ×
//     shards;
//   - the build scratch of the largest final array, 2 bytes a slot of
//     distances and 4 bytes a slot of homes;
//   - one growth staging array of 12-byte entries, a resident and its
//     home, for the largest growth: a shard grows when it holds 3/4 of its
//     slots, so the largest final array's last growth stages 3/8 of it;
//   - one epoch record per growth the batch could take, min(n, shards ×
//     bits.Len(n)), plus the first epoch and the closing one, each a key, a
//     cold fraction and epochLines prices;
//   - per shard, the plan (three words and the reserved slot array);
//   - nothing for the run list: the batch's one local half is one run,
//     which the batch keeps on its stack with the closing run.
//
// Each allocation counts at its allocator size (heapBytes), so a slot,
// scratch or epoch-list regrowth, or a slot array allocated on its own,
// fails here, not only in the benchmark.
func TestInsertBatchHostBytes(t *testing.T) {
	const n = 100_000
	ep := testEndpoint(t, 5001, 44000)
	tabs := make([]*FlowTable, allocTries)
	for i := range tabs {
		var err error
		if tabs[i], err = NewFlowTable(0); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	got := allocated(func() {
		if err := tabs[next].InsertBatch(n, diffKey, ep); err != nil {
			t.Fatal(err)
		}
		next++
	})

	tab := tabs[0]
	shards := len(tab.shards)
	blocks := (n + batchBlock - 1) / batchBlock
	want := heapBytes[uint16](n) + heapBytes[uint8](batchBlock) + heapBytes[int](blocks*shards+1)
	total, widest := 0, 0
	for si := range tab.shards {
		slots := len(tab.shards[si].slots)
		total += slots
		widest = max(widest, slots)
	}
	want += heapBytes[[8]byte](total) + heapBytes[uint16](widest) + heapBytes[uint32](widest)
	want += heapBytes[[12]byte](3 * widest / 8)
	want += heapBytes[[16 + 8*epochLines]byte](2 + min(n, shards*bits.Len(n)))
	want += heapBytes[struct {
		slots, used, next int
		built             []flowSlot
	}](shards)
	if got != want {
		t.Errorf("InsertBatch(%d keys) allocated %d bytes, want %d", n, got, want)
	}
}

// splitmix64 is a small deterministic mixer for fuzz-derived keys.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// FuzzInsertBatch drives the batch ≡ serial contract over fuzzed batch
// sizes, prefill counts and address seeds. The seed picks the shard count,
// either a collision-free key run or keys drawn from a space small enough
// that in-batch and resident duplicates are likely, with bit 2 runs of
// local halves that change within the batch, bit 7 a batch one grouping
// block (batchBlock keys) longer, and, from its top 16 bits, the cache
// size: 64 bytes up to half a megabyte, so the footprint outgrows the
// cache at the first key, partway through the batch or not at all.
func FuzzInsertBatch(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint64(0))
	f.Add(uint16(1), uint8(64), uint64(2))
	f.Add(uint16(1000), uint8(64), uint64(0x700))
	f.Add(uint16(3000), uint8(10), uint64(0x301))
	f.Add(uint16(3000), uint8(10), uint64(0x3000_0000_0000_0300))
	// One grouping block and 100 keys, over 32 shards.
	f.Add(uint16(100), uint8(0), uint64(0x580))
	// Runs of both local halves, with duplicates likely.
	f.Add(uint16(2000), uint8(30), uint64(0x205))
	f.Fuzz(insertBatchCase)
}

// insertBatchCase is FuzzInsertBatch's body: it runs one batch and its
// serial reference on a fresh pair of tables. With seed bit 2 set, the
// batch's keys come in runs of four whose local half is drawn from the
// seed, diffKey's or twinKey's.
func insertBatchCase(t *testing.T, n uint16, prefill uint8, seed uint64) {
	size := int(n % 4096)
	if seed&0x80 != 0 {
		size += batchBlock
	}
	shards := 1 << (seed >> 8 % 8)
	space := uint64(4*size + int(prefill) + 1)
	keyOf := func(i int) FlowKey {
		j := int(seed>>16%(1<<20)) + i
		if seed&1 != 0 {
			j = int(splitmix64(seed+uint64(i)) % space)
		}
		if seed&4 != 0 && splitmix64(^seed+uint64(i/4))&1 != 0 {
			return twinKey(j)
		}
		return diffKey(j)
	}
	ep := testEndpoint(t, 5001, 44000)
	serial, batch, ms, mb := pricedPair(t, shards, 64+seed>>48<<3)
	for j := 0; j < int(prefill); j++ {
		k := diffKey(int(splitmix64(^seed+uint64(j)) % space))
		if e1, e2 := serial.Insert(k, ep), batch.Insert(k, ep); (e1 == nil) != (e2 == nil) {
			t.Fatalf("prefill %d diverged: %v vs %v", j, e1, e2)
		}
	}
	errS := serialInserts(serial, size, keyOf, ep)
	errB := batch.InsertBatch(size, keyOf, ep)
	if fmt.Sprint(errS) != fmt.Sprint(errB) {
		t.Fatalf("errors differ: serial %v, batch %v", errS, errB)
	}
	requireTablesEqual(t, "fuzz", serial, batch, ms, mb)
	checkOpenInvariants(t, serial)
	checkOpenInvariants(t, batch)
}

// tableStatsBySort is the reference structure summary: it derives every
// resident entry's probe length from its slot index and its key's full
// Toeplitz hash, and sorts them, the definition TableStats reads off its
// maintained histogram instead.
func tableStatsBySort(t *FlowTable) TableStats {
	ts := TableStats{Entries: t.count, Bytes: t.bytes, DemuxCycles: t.DemuxCycles()}
	var loads []float64
	var probes []int
	var hist []uint64
	for i := range t.shards {
		s := &t.shards[i]
		if len(s.slots) == 0 {
			continue
		}
		ts.Slots += len(s.slots)
		loads = append(loads, float64(s.used)/float64(len(s.slots)))
		mask := len(s.slots) - 1
		for j, sl := range s.slots {
			if sl.ref == 0 {
				continue
			}
			home := int(slotIndexHash(sl.key(t.eps).Hash())) & mask
			d := (j-home)&mask + 1
			probes = append(probes, d)
			for len(hist) < d {
				hist = append(hist, 0)
			}
			hist[d-1]++
		}
	}
	if len(loads) > 0 {
		sort.Float64s(loads)
		ts.LoadMin, ts.LoadP50, ts.LoadMax = loads[0], loads[len(loads)/2], loads[len(loads)-1]
	}
	if len(probes) > 0 {
		sort.Ints(probes)
		ts.ProbeMin, ts.ProbeP50, ts.ProbeMax = probes[0], probes[len(probes)/2], probes[len(probes)-1]
		ts.ProbeHist = hist
	}
	return ts
}

// TestTableStatsMatchesSortReference checks the histogram-derived probe
// summary against the sort-based reference on random tables, from empty
// and single-entry ones to tables thinned by removes, and on one pile-up
// whose probe lengths pass TableStats' fixed histogram.
func TestTableStatsMatchesSortReference(t *testing.T) {
	ep := testEndpoint(t, 5001, 44000)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		// Small one-shard tables put the median on a histogram bucket
		// boundary often; every tenth trial is large, for long probe
		// tails over many shards.
		n, shards := 2+rng.Intn(12), 1
		switch {
		case trial < 2:
			n = trial
		case trial%10 == 0:
			n, shards = rng.Intn(20_000), 1<<rng.Intn(8)
		}
		tab, err := NewFlowTable(shards)
		if err != nil {
			t.Fatal(err)
		}
		base := rng.Intn(1 << 20)
		for i := 0; i < n; i++ {
			if err := tab.Insert(diffKey(base+i), ep); err != nil {
				t.Fatal(err)
			}
		}
		if trial%3 == 2 {
			for i := 0; i < n; i++ {
				if rng.Intn(4) != 0 {
					tab.Remove(diffKey(base + i))
				}
			}
		}
		if got, want := tab.TableStats(), tableStatsBySort(tab); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d keys, %d shards): TableStats\n got %+v\nwant %+v", trial, n, shards, got, want)
		}
	}

	// One more trial: 80 keys that share a home slot in a 1-shard table
	// of 128 slots probe 1 to 80 slots deep, past TableStats' fixed
	// histogram.
	const pileup = 80
	tab, err := NewFlowTable(1)
	if err != nil {
		t.Fatal(err)
	}
	home := slotIndexHash(diffKey(0).Hash()) & 127
	for i := 0; tab.Len() < pileup; i++ {
		if k := diffKey(i); slotIndexHash(k.Hash())&127 == home {
			if err := tab.Insert(k, ep); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, want := tab.TableStats(), tableStatsBySort(tab)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pile-up of %d keys: TableStats\n got %+v\nwant %+v", pileup, got, want)
	}
	if got.ProbeMax != pileup || got.Slots != 128 {
		t.Fatalf("pile-up of %d keys: probe max %d in %d slots, want %d in 128", pileup, got.ProbeMax, got.Slots, pileup)
	}
}

// TestRegisterAllocFree: registering into a table with spare capacity
// allocates nothing. The stack binds its Output method once, so an
// endpoint's registration does not build a method value.
func TestRegisterAllocFree(t *testing.T) {
	params := cost.NativeUP()
	var m cycles.Meter
	st := New(&m, &params, buf.NewAllocator(&m, &params))
	ep := testEndpoint(t, 5001, 44000)
	const n = 200
	for i := 0; i < n; i++ {
		if err := st.Register(ep, senderIP, rcvrIP, uint16(1024+i), 44000); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		st.Unregister(senderIP, rcvrIP, uint16(1024+i), 44000)
	}
	i := 0
	allocs := testing.AllocsPerRun(n-1, func() {
		if err := st.Register(ep, senderIP, rcvrIP, uint16(1024+i), 44000); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Register allocated %.1f times per call, want 0", allocs)
	}
}

// TestRegisterBatchMatchesRegister: the stack-level batch equals n
// Register calls, memory budget peak and Output binding included.
func TestRegisterBatchMatchesRegister(t *testing.T) {
	params := cost.NativeUP()
	params.Mem.CacheBytes = 64
	build := func() (*Stack, *cycles.Meter) {
		var m cycles.Meter
		return New(&m, &params, buf.NewAllocator(&m, &params)), &m
	}
	serial, ms := build()
	batch, mb := build()
	ep := testEndpoint(t, 5001, 44000)
	for i := 0; i < 3000; i++ {
		k := diffKey(i)
		if err := serial.Register(ep, k.Src, k.Dst, k.SrcPort, k.DstPort); err != nil {
			t.Fatal(err)
		}
	}
	ep.Output = nil
	if err := batch.RegisterBatch(3000, diffKey, ep); err != nil {
		t.Fatal(err)
	}
	requireTablesEqual(t, "stack", serial.FlowTable(), batch.FlowTable(), ms, mb)
	if serial.MemStats() != batch.MemStats() {
		t.Errorf("memory budgets differ: %+v vs %+v", serial.MemStats(), batch.MemStats())
	}
	if ep.Output == nil {
		t.Error("RegisterBatch did not bind the endpoint's Output")
	}
}
