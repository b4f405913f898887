package netstack

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
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
// shard's slots element by element, occupancy and
// counters, the table's length, footprint and demux cycles, the meters'
// snapshots and the structure summaries.
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
		_, probes := s.openLookup(k.Hash(), k)
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
//   - each shard's final slot array, at 16 bytes a slot;
//   - 2 bytes of scratch per key (its offset in its block's shard group)
//     and 1 byte per key of one block (the block's shards);
//   - the per-(block, shard) start table, one word more than blocks ×
//     shards;
//   - one growth staging array, half the largest final array;
//   - one 16-byte epoch record per growth the batch could take,
//     min(n, shards × bits.Len(n)), plus the first epoch;
//   - per shard, the pass-1 tally (three words) and the built shard
//     header (an 80-byte flowShard).
//
// Each allocation counts at its allocator size (heapBytes), so a slot,
// scratch or epoch-list regrowth fails here, not only in the benchmark.
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
	stage := 0
	for si := range tab.shards {
		slots := len(tab.shards[si].slots)
		want += heapBytes[[16]byte](slots)
		stage = max(stage, slots/2)
	}
	want += heapBytes[[16]byte](stage)
	want += heapBytes[[16]byte](1 + min(n, shards*bits.Len(n)))
	want += heapBytes[[3]int](shards) + heapBytes[flowShard](shards)
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
// that in-batch and resident duplicates are likely, with bit 7 a batch
// one grouping block (batchBlock keys) longer, and, from its top 16 bits,
// the cache size: 64 bytes up to half a megabyte, so the footprint
// outgrows the cache at the first key, partway through the batch or not
// at all.
func FuzzInsertBatch(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint64(0))
	f.Add(uint16(1), uint8(64), uint64(2))
	f.Add(uint16(1000), uint8(64), uint64(0x700))
	f.Add(uint16(3000), uint8(10), uint64(0x301))
	f.Add(uint16(3000), uint8(10), uint64(0x3000_0000_0000_0300))
	// One grouping block and 100 keys, over 32 shards.
	f.Add(uint16(100), uint8(0), uint64(0x580))
	f.Fuzz(func(t *testing.T, n uint16, prefill uint8, seed uint64) {
		size := int(n % 4096)
		if seed&0x80 != 0 {
			size += batchBlock
		}
		shards := 1 << (seed >> 8 % 8)
		space := uint64(4*size + int(prefill) + 1)
		keyOf := func(i int) FlowKey {
			if seed&1 == 0 {
				return diffKey(int(seed>>16%(1<<20)) + i)
			}
			return diffKey(int(splitmix64(seed+uint64(i)) % space))
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
		checkOpenInvariants(t, batch)
	})
}

// tableStatsBySort is the reference structure summary: it collects every
// resident entry's probe length and sorts them, the definition TableStats
// computes from its histogram instead.
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
		for j := range s.slots {
			if d := int(s.slots[j].dist); d > 0 {
				probes = append(probes, d)
				for len(hist) < d {
					hist = append(hist, 0)
				}
				hist[d-1]++
			}
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
