package netstack

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/memmodel"
	"repro/internal/rss"
	"repro/internal/tcp"
)

// FlowTable is the sharded TCP demultiplexing table: a power-of-two
// number of shards, each holding the endpoints whose RSS hash falls in
// the shard's buckets.
//
// Sharding replaces the flat map[FlowKey]*Endpoint for two reasons
// ("Algorithms and Data Structures to Accelerate Network Analysis",
// Ros-Giralt et al.): with many thousands of flows a single map walks a
// cache-hostile bucket array shared by every CPU, and any mutation
// (connection churn) contends on one structure. Here the shard index is
// the same Toeplitz-hash bucket the NIC used to pick the receive queue,
// so shard = f(bucket) and queue = bucket mod queues: every shard is only
// ever touched by the one softirq context that owns its queue, lookups
// stay within a CPU-local map, and churn on one shard never disturbs
// another CPU's flows.
//
// Each shard is an open-addressing table probed linearly with robin-hood
// displacement and grown by powers of two at 3/4 load. The cost model
// prices it as a kernel socket hash of fixed 32-byte slots
// (FlowSlotBytes), two per cache line, in which hash, key and endpoint
// reference share the slot: a lookup's memory traffic is the probe run
// itself, the hit entry streams in with the key compares, and robin-hood
// keeps probe runs short and adjacent, so a demux touch is ~1 line
// however large the table is. The simulator stores each slot in 18 bytes
// with no hash (flowSlot); the priced footprint does not follow it.
//
// Structural touches charge through the machine's memory model at the
// capacity-miss excess only (CapacityTouchCost): while the table fits in
// cache the charge is exactly zero — the warm demux cost is already inside
// the calibrated per-packet constants, and the table prices
// bit-identically to the seed — and once the registered population
// outgrows the cache, every lookup pays DRAM latency on the cold fraction
// of its line touches. That is what makes connection count an honest
// per-packet cost axis: a lookup stays near one line however cold the
// structure is.
type FlowTable struct {
	shards []flowShard
	count  int

	// bytes is the modeled structure footprint of the demux table itself
	// (the slot arrays, not the endpoints), the capacity-model input;
	// demuxCycles accumulates every cycle charged through it.
	bytes       uint64
	demuxCycles uint64

	// meter/params, when set (SetPricing), price structural touches; a
	// table built without them (unit tests) charges nothing.
	meter  *cycles.Meter
	params *cost.Params

	// owners, when set, is the live bucket→CPU steering map shared with
	// the NICs: shard ownership follows indirection rewrites. nil turns
	// ownership (steal) accounting off.
	owners *rss.Map
	// flowOwners holds the aRFS per-flow ownership overrides: a steered
	// flow's deliveries are expected from its application CPU, whatever
	// its bucket's owner is. It is the one software record of an aRFS
	// steering decision — netback reads its I/O channel choice from it
	// too; the NIC's rule table is the hardware's copy.
	flowOwners map[FlowKey]int

	// eps is the endpoint slab: slots name their endpoint by a uint32
	// handle into it, so none holds a pointer. Handle 0 is nil. free
	// stacks the handles whose last key went; newest is the handle bound
	// last, which binding its endpoint again reuses — so a batch's keys,
	// or a serial run of inserts for one endpoint, share one handle.
	eps    []epRef
	free   []uint32
	newest uint32
}

// epRef is one endpoint slab entry: the endpoint and the number of
// registered keys naming it. A handle whose count falls to zero is free.
type epRef struct {
	ep   *tcp.Endpoint
	refs int
}

// epSlabRoom is the slab's initial capacity, enough for a small run's
// endpoints without regrowth.
const epSlabRoom = 16

const (
	// FlowSlotBytes is the priced footprint of one open-addressed slot:
	// 12 bytes of four-tuple key, the 4-byte Toeplitz hash, the 2-byte
	// robin-hood probe distance and an 8-byte endpoint pointer, padded to
	// a half cache line so two slots share a 64-byte line and a probe run
	// streams rather than chases. It models a kernel's socket-hash slot
	// and is deliberately decoupled from the simulator's own 18-byte
	// flowSlot: what the model charges must not follow how Go stores it.
	FlowSlotBytes = 32
	// flowShardMinSlots is the initial slot-array size of a shard's first
	// insert (arrays are allocated lazily, so empty shards occupy no
	// modeled bytes).
	flowShardMinSlots = 8
)

// flowSlot is one open-addressed entry as the simulator stores it: 18
// bytes and no pointer, so a million-entry table is 44% smaller than the
// priced FlowSlotBytes layout and the garbage collector never scans it.
// Every field is 2-byte aligned, so a slot array has no padding: the
// endpoint's 32-bit slab handle (FlowTable.eps) is stored as two halves
// behind ref, and the key's hash is not stored at all — the caller's
// hash picks the home slot, lookups compare the key, and growth, the one
// place a resident's hash is needed, recomputes it. dist is the 1-based
// probe distance from the key's home slot (0 = empty); robin-hood
// insertion keeps it near 1 and bounded, and it doubles as the per-entry
// probe length the occupancy histogram reports.
type flowSlot struct {
	key          FlowKey
	dist         uint16
	refLo, refHi uint16
}

// ref returns the slot's endpoint handle.
func (sl *flowSlot) ref() uint32 { return uint32(sl.refHi)<<16 | uint32(sl.refLo) }

// flowShard is one shard: a private open-addressed slot array plus
// per-shard receive counters, including the pending-aggregate accounting
// that lets tests and benchmarks observe how aggregation state
// distributes over shards.
type flowShard struct {
	slots []flowSlot // lazy, power of two
	used  int        // occupied slots
	stats ShardStats
}

// ShardStats counts one shard's demux activity.
type ShardStats struct {
	// Endpoints is the current number of registered flows.
	Endpoints int
	// HostPackets and NetPackets count delivered traffic.
	HostPackets, NetPackets uint64
	// Aggregates counts delivered multi-frame host packets — the
	// shard-local share of pending-aggregate state that was flushed
	// through this shard.
	Aggregates uint64
	// Misses counts lookups that found no endpoint.
	Misses uint64
	// Steals counts lookups performed by a CPU other than the flow's
	// owner (OwnerOf: its aRFS override, else its bucket's entry in the
	// owner map). Zero as long as the queue→shard ownership invariant
	// holds; non-zero means a flow's packets crossed CPUs and shard state
	// is no longer CPU-local.
	Steals uint64
}

// DefaultFlowShards is the default shard count: equal to the RSS
// indirection table size, so shard index and steering bucket coincide.
const DefaultFlowShards = rss.Buckets

// NewFlowTable creates a table with the given power-of-two shard count
// (0 = DefaultFlowShards).
func NewFlowTable(shards int) (*FlowTable, error) {
	if shards == 0 {
		shards = DefaultFlowShards
	}
	if err := rss.ValidShards(shards); err != nil {
		return nil, fmt.Errorf("netstack: %w", err)
	}
	return &FlowTable{
		shards: make([]flowShard, shards),
		eps:    make([]epRef, 1, epSlabRoom),
	}, nil
}

// SetPricing arms the table's structural cost charging: lookups charge
// cycles.Rx and mutations cycles.NonProto through p's memory model at
// the capacity-miss excess (zero while the table fits in cache). Stacks
// arm their tables at construction; bare tables (unit tests) stay free.
func (t *FlowTable) SetPricing(m *cycles.Meter, p *cost.Params) {
	t.meter, t.params = m, p
}

// StructBytes returns the modeled footprint of the demux structure
// itself (the slot arrays, not the endpoints).
func (t *FlowTable) StructBytes() uint64 { return t.bytes }

// DemuxCycles returns the cycles charged for structural demux touches so
// far (zero while the table fits in cache or pricing is off).
func (t *FlowTable) DemuxCycles() uint64 { return t.demuxCycles }

// slotIndexHash remixes the Toeplitz hash for slot indexing. The shard
// index is the hash's low bucket bits, so every key in a shard shares
// them; the slot index must depend on the remaining bits or all of a
// shard's keys would pile onto a handful of home slots. The murmur3
// finalizer avalanches every input bit into the low output bits.
func slotIndexHash(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// openProbeLines converts a probe count to touched cache lines: slots
// are half a line, probed at adjacent indices, so the first probe is one
// line and every two further probes stream one more — the "key-compare
// line chases" of a lookup, with the hit entry on the same lines.
func openProbeLines(probes int) int {
	if probes <= 0 {
		return 0
	}
	return 1 + (probes-1)/2
}

// charge prices one structural touch through the capacity model.
func (t *FlowTable) charge(cat cycles.Category, lines int) {
	if t.meter == nil || lines == 0 {
		return
	}
	c := t.params.Mem.CapacityTouchCost(lines, t.bytes)
	if c == 0 {
		return
	}
	t.meter.Charge(cat, c)
	t.demuxCycles += c
}

// chargeGrow prices a shard growth rehash: a sequential sweep of the old
// and new slot arrays, scaled by the table's capacity cold fraction
// (zero while the table fits in cache, like every structural charge).
func (t *FlowTable) chargeGrow(oldSlots, newSlots int) {
	if t.meter == nil {
		return
	}
	c := t.params.Mem.CapacityStreamCost((oldSlots+newSlots)*FlowSlotBytes, t.bytes)
	if c == 0 {
		return
	}
	t.meter.Charge(cycles.NonProto, c)
	t.demuxCycles += c
}

// handleFor returns the slab handle that binding ep takes: the newest
// handle when it holds ep, else the most recently freed one, else a new
// one. It reserves nothing; retain commits the binding.
func (t *FlowTable) handleFor(ep *tcp.Endpoint) uint32 {
	if e := &t.eps[t.newest]; e.refs > 0 && e.ep == ep {
		return t.newest
	}
	if n := len(t.free); n > 0 {
		return t.free[n-1]
	}
	return uint32(len(t.eps))
}

// retain binds n more keys to ep under h, the handle handleFor returned.
func (t *FlowTable) retain(h uint32, ep *tcp.Endpoint, n int) {
	switch {
	case int(h) == len(t.eps):
		t.eps = append(t.eps, epRef{})
	case t.eps[h].refs == 0:
		t.free = t.free[:len(t.free)-1]
	}
	t.eps[h].ep = ep
	t.eps[h].refs += n
	t.newest = h
}

// release drops one key's reference to handle h; the last one frees it.
func (t *FlowTable) release(h uint32) {
	e := &t.eps[h]
	if e.refs--; e.refs == 0 {
		e.ep = nil
		t.free = append(t.free, h)
	}
}

// openLookup probes shard s for k, returning the endpoint handle (0 =
// absent) and the probe count. Robin-hood ordering terminates a miss
// early: once a resident entry's distance is below the probe distance, k
// cannot be further along.
func (s *flowShard) openLookup(h uint32, k FlowKey) (uint32, int) {
	if len(s.slots) == 0 {
		return 0, 1
	}
	mask := uint32(len(s.slots) - 1)
	i := slotIndexHash(h) & mask
	for p := uint16(1); ; p++ {
		sl := &s.slots[i]
		if sl.dist == 0 || sl.dist < p {
			return 0, int(p)
		}
		if sl.key == k {
			return sl.ref(), int(p)
		}
		i = (i + 1) & mask
	}
}

// openSlotsFor is the growth rule: the slot count a shard of slots slots
// holding used entries must have before its next insert. It is slots
// itself below 3/4 load, else the doubled count (flowShardMinSlots for a
// shard's first insert).
func openSlotsFor(slots, used int) int {
	switch {
	case slots == 0:
		return flowShardMinSlots
	case (used+1)*4 > slots*3:
		return 2 * slots
	}
	return slots
}

// openGrow resizes the slot array to n slots and rehashes every resident
// entry in old-slot order, recomputing each one's hash from its key. An
// array with spare capacity (InsertBatch reserves it, zeroed) grows in
// place, with the old entries staged in scratch, which InsertBatch sizes
// to hold them. Otherwise a fresh array is allocated.
func (s *flowShard) openGrow(n int, scratch []flowSlot) {
	old := s.slots
	if cap(old) >= n {
		staged := append(scratch[:0], old...)
		clear(old)
		s.slots, old = old[:n], staged
	} else {
		s.slots = make([]flowSlot, n)
	}
	s.used = 0
	for i := range old {
		if old[i].dist != 0 {
			s.openPut(old[i].key.Hash(), old[i].key, old[i].ref())
		}
	}
}

// openPut inserts k, robin-hood displacing richer residents, and returns
// the number of slots visited and true; if k is already resident it
// changes nothing and returns false. It compares keys only until the
// first displacement, which is exactly where openLookup would stop, so
// its visit count is the probe count of a lookup miss. The caller must
// have ensured capacity (openSlotsFor), so an empty slot is guaranteed
// within the probe run.
func (s *flowShard) openPut(h uint32, k FlowKey, ref uint32) (int, bool) {
	mask := uint32(len(s.slots) - 1)
	cur := flowSlot{key: k, dist: 1, refLo: uint16(ref), refHi: uint16(ref >> 16)}
	i := slotIndexHash(h) & mask
	displaced := false
	visited := 0
	for {
		visited++
		sl := &s.slots[i]
		if sl.dist == 0 {
			*sl = cur
			s.used++
			return visited, true
		}
		if sl.dist < cur.dist {
			// Robin hood: the poorer key (further from home) takes the
			// slot; the displaced resident continues probing.
			*sl, cur = cur, *sl
			displaced = true
		} else if !displaced && sl.key == k {
			return visited, false
		}
		cur.dist++
		i = (i + 1) & mask
	}
}

// openRemove deletes k with backward-shift compaction (successor entries
// slide one slot toward home, keeping probe runs tight for every later
// lookup), returning k's endpoint handle (0 = not resident) and the slots
// visited.
func (s *flowShard) openRemove(h uint32, k FlowKey) (uint32, int) {
	if len(s.slots) == 0 {
		return 0, 1
	}
	mask := uint32(len(s.slots) - 1)
	i := slotIndexHash(h) & mask
	for p := uint16(1); ; p++ {
		sl := &s.slots[i]
		if sl.dist == 0 || sl.dist < p {
			return 0, int(p)
		}
		if sl.key == k {
			ref := sl.ref()
			for {
				j := (i + 1) & mask
				nx := s.slots[j]
				if nx.dist <= 1 {
					s.slots[i] = flowSlot{}
					break
				}
				nx.dist--
				s.slots[i] = nx
				i = j
			}
			s.used--
			return ref, int(p)
		}
		i = (i + 1) & mask
	}
}

// ShardOf returns the index of the shard owning key.
func (t *FlowTable) ShardOf(k FlowKey) int {
	return rss.ShardOf(k.Hash(), len(t.shards))
}

// Shards returns the shard count.
func (t *FlowTable) Shards() int { return len(t.shards) }

// Len returns the total number of registered endpoints.
func (t *FlowTable) Len() int { return t.count }

// Insert registers ep under k; duplicate keys error. The structural
// touches (probe chase plus entry write) charge cycles.NonProto at the
// capacity-miss excess — socket-hash insertion is connection-setup work,
// not receive protocol processing.
func (t *FlowTable) Insert(k FlowKey, ep *tcp.Endpoint) error {
	h := k.Hash()
	s := &t.shards[rss.ShardOf(h, len(t.shards))]
	if ref, _ := s.openLookup(h, k); ref != 0 {
		return t.dupErr(k)
	}
	ref := t.handleFor(ep)
	t.retain(ref, ep, 1)
	slots, used := len(s.slots), s.used
	if n := openSlotsFor(slots, used); n != slots {
		s.openGrow(n, nil)
	}
	probes, _ := s.openPut(h, k, ref)
	t.priceOpenInsert(s, slots, used, probes)
	return nil
}

// priceOpenInsert is the one pricing rule of an insert into shard s,
// which held used entries in slots slots before it and whose openPut
// visited probes slots: the growth decision on the modelled slot count,
// the footprint and growth-rehash charge, the probe-run charge and the
// endpoint counters, in that order. Insert applies it after each physical
// insert; InsertBatch sums the same charges per footprint epoch.
func (t *FlowTable) priceOpenInsert(s *flowShard, slots, used, probes int) {
	if n := openSlotsFor(slots, used); n != slots {
		t.bytes += uint64(n-slots) * FlowSlotBytes
		t.chargeGrow(slots, n)
	}
	t.charge(cycles.NonProto, openProbeLines(probes))
	s.stats.Endpoints++
	t.count++
}

// growth is one shard growth a batch takes: the index of the key whose
// insert triggers it, and the shard's slot counts before and after.
type growth struct{ key, from, to uint32 }

// shardGrowths walks openSlotsFor over the next keys inserts into a shard
// of slots slots holding used entries. It calls grow, when non-nil, with
// the 0-based ordinal of each insert that grows the shard and the slot
// counts before and after, and returns the growth count and the final
// slot count. At a fixed slot count, openSlotsFor grows from some
// occupancy on, so each growth is found by binary search rather than by
// trying every insert.
func shardGrowths(slots, used, keys int, grow func(j, from, to int)) (growths, final int) {
	for j := 0; ; j++ {
		j += sort.Search(keys-j, func(d int) bool { return openSlotsFor(slots, used+j+d) != slots })
		if j >= keys {
			return growths, slots
		}
		n := openSlotsFor(slots, used+j)
		if grow != nil {
			grow(j, slots, n)
		}
		growths++
		slots = n
	}
}

// InsertBatch registers ep under key(0), …, key(n-1) and leaves the table
// exactly as n calls to Insert in index order would: the same slots in
// every shard, the same footprint, counters, meter and demux cycles. On a
// duplicate it stops where that loop would, with the keys before it
// registered and the same error.
//
// The batch builds the table shard by shard, so bulk population works on
// one cache-resident shard at a time instead of scattering consecutive
// inserts over the whole table:
//
//  1. Group and reserve: hash the keys, record each one's shard and
//     counting-sort their indices by shard. Walk each touched shard's
//     growth sequence, reserve its final slot array, and record each
//     growth with the index of the key that triggers it. Sorted by that
//     index, the growths cut the batch into footprint epochs: key i's
//     epoch is the growths at indices up to i, its own included, so its
//     probe charge sees the footprint Insert's charge would. Each epoch's
//     cold fraction is computed once, and each growth's rehash charge is
//     priced at the footprint it leaves.
//  2. Insert: fill each shard with its keys in index order, rehashing
//     each key as it goes. Growth doubles inside the reservation and
//     rehashes in old-slot order, like Insert's growth, so every slot
//     lands where Insert would put it. A per-shard cursor over the sorted
//     growths tracks each key's epoch, which prices its probe run. The
//     put itself detects a duplicate. Nothing is committed or charged
//     until every shard is built, so on a duplicate the batch discards
//     its work and reruns over the keys before it.
//
// The commit then applies the summed charge once. That is exact because a
// cycles.Meter keeps only a per-category sum: the per-key charges Insert
// would make, added in another order, give the same meter and demux
// cycles.
//
// All n keys take the one slab handle Insert's first call would bind, and
// the later calls reuse. The scratch is five bytes per key (each key's
// shard and its grouped index), plus one 12-byte growth record per shard
// growth and one cold fraction per epoch.
func (t *FlowTable) InsertBatch(n int, key func(int) FlowKey, ep *tcp.Endpoint) error {
	if n <= 0 {
		return nil
	}

	// Pass 1: group by shard. Shard si's key indices occupy
	// grouped[start[si]:start[si+1]] in ascending order.
	nShards := len(t.shards)
	// shardOf holds a shard index in a byte: this fails to compile if
	// the bucket count, which bounds the shard count, outgrows it.
	const _ uint8 = rss.Buckets - 1
	shardOf := make([]uint8, n)
	start := make([]int, nShards+1)
	for i := range shardOf {
		si := rss.ShardOf(key(i).Hash(), nShards)
		shardOf[i] = uint8(si)
		start[si+1]++
	}
	for si := 0; si < nShards; si++ {
		start[si+1] += start[si]
	}
	grouped := make([]uint32, n)
	next := append([]int(nil), start[:nShards]...)
	for i, si := range shardOf {
		grouped[next[si]] = uint32(i)
		next[si]++
	}

	// Reserve each touched shard's final array, counting the growths on
	// the way. A growth stages the old entries in scratch, sized once for
	// the largest array a growth leaves behind.
	built := make([]flowShard, nShards)
	stage, nGrowths := 0, 0
	for si := range t.shards {
		s, w := &t.shards[si], &built[si]
		if start[si] == start[si+1] {
			continue
		}
		g, final := shardGrowths(len(s.slots), s.used, start[si+1]-start[si], nil)
		nGrowths += g
		if g > 0 {
			stage = max(stage, final/2)
		}
		w.slots = make([]flowSlot, len(s.slots), final)
		copy(w.slots, s.slots)
		w.used = s.used
	}
	scratch := make([]flowSlot, 0, stage)

	// Record the growths, sort them into index order and price the
	// epochs. cold[e] is the cold fraction once the first e growths have
	// landed. An unpriced table prices at the zero memory model, whose
	// capacity charges are all zero.
	growths := make([]growth, 0, nGrowths)
	for si := range t.shards {
		s, keys := &t.shards[si], grouped[start[si]:start[si+1]]
		shardGrowths(len(s.slots), s.used, len(keys), func(j, from, to int) {
			growths = append(growths, growth{keys[j], uint32(from), uint32(to)})
		})
	}
	slices.SortFunc(growths, func(a, b growth) int { return cmp.Compare(a.key, b.key) })
	var mem memmodel.Params
	if t.meter != nil {
		mem = t.params.Mem
	}
	footprint := t.bytes
	cold := make([]float64, len(growths)+1)
	cold[0] = mem.CapacityColdFraction(footprint)
	var demux uint64
	for e, g := range growths {
		footprint += uint64(g.to-g.from) * FlowSlotBytes
		cold[e+1] = mem.CapacityColdFraction(footprint)
		demux += mem.CapacityStreamCostAt((int(g.from)+int(g.to))*FlowSlotBytes, cold[e+1])
	}

	// Pass 2: build each shard in its reservation, pricing each key's
	// probe run at its epoch.
	ref := t.handleFor(ep)
	firstDup := n
	for si := range built {
		w := &built[si]
		e := 0
		for _, i32 := range grouped[start[si]:start[si+1]] {
			i := int(i32)
			if i >= firstDup {
				break
			}
			if g := openSlotsFor(len(w.slots), w.used); g != len(w.slots) {
				w.openGrow(g, scratch)
			}
			k := key(i)
			probes, ok := w.openPut(k.Hash(), k, ref)
			if !ok {
				firstDup = i
				break
			}
			for e < len(growths) && growths[e].key <= i32 {
				e++
			}
			demux += mem.CapacityTouchCostAt(openProbeLines(probes), cold[e])
		}
	}
	if firstDup < n {
		if err := t.InsertBatch(firstDup, key, ep); err != nil {
			return err
		}
		return t.dupErr(key(firstDup))
	}

	// Commit.
	for si := range t.shards {
		if keys := start[si+1] - start[si]; keys > 0 {
			s := &t.shards[si]
			s.slots, s.used = built[si].slots, built[si].used
			s.stats.Endpoints += keys
		}
	}
	t.retain(ref, ep, n)
	t.count += n
	t.bytes = footprint
	if demux > 0 {
		t.meter.Charge(cycles.NonProto, demux)
		t.demuxCycles += demux
	}
	return nil
}

func (t *FlowTable) dupErr(k FlowKey) error {
	return fmt.Errorf("netstack: duplicate registration for %v:%d->%v:%d",
		k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Peek returns the endpoint bound to k without touching any delivery
// counter or charging any cost (control-path lookup — teardown snapshots
// endpoint state through it), or nil.
func (t *FlowTable) Peek(k FlowKey) *tcp.Endpoint {
	h := k.Hash()
	ref, _ := t.shards[rss.ShardOf(h, len(t.shards))].openLookup(h, k)
	return t.eps[ref].ep
}

// Remove unregisters the endpoint bound to k, reporting whether it
// existed. Structural touches charge cycles.NonProto like Insert's.
func (t *FlowTable) Remove(k FlowKey) bool {
	h := k.Hash()
	s := &t.shards[rss.ShardOf(h, len(t.shards))]
	ref, probes := s.openRemove(h, k)
	if ref == 0 {
		return false
	}
	t.charge(cycles.NonProto, openProbeLines(probes))
	t.release(ref)
	delete(t.flowOwners, k)
	s.stats.Endpoints--
	t.count--
	return true
}

// SetOwnerMap turns ownership accounting on (nil: off) and ties shard
// ownership to a live steering map (normally the same rss.Map the
// machine's NICs steer with): when the rebalancer repoints a bucket, the
// shard's expected CPU moves with it, so steal accounting measures
// violations of the *current* steering. Together with the per-flow
// overrides (SetFlowOwner) it is the one software record of which CPU
// owns a flow; OwnerOf answers from it.
func (t *FlowTable) SetOwnerMap(m *rss.Map) { t.owners = m }

// SetFlowOwner records an aRFS override: k's deliveries are expected from
// cpu regardless of its bucket's owner. Cleared by ClearFlowOwner or when
// the flow is removed.
func (t *FlowTable) SetFlowOwner(k FlowKey, cpu int) {
	if t.flowOwners == nil {
		t.flowOwners = make(map[FlowKey]int)
	}
	t.flowOwners[k] = cpu
}

// ClearFlowOwner drops k's aRFS override when LRU pressure evicts its
// rule.
func (t *FlowTable) ClearFlowOwner(k FlowKey) { delete(t.flowOwners, k) }

// FlowOwnerOverrides returns the number of live per-flow overrides.
func (t *FlowTable) FlowOwnerOverrides() int { return len(t.flowOwners) }

// FlowOwner returns k's aRFS override, if it has one.
func (t *FlowTable) FlowOwner(k FlowKey) (cpu int, ok bool) {
	if len(t.flowOwners) == 0 {
		return 0, false
	}
	cpu, ok = t.flowOwners[k]
	return cpu, ok
}

// OwnerOf returns the CPU expected to deliver k's packets under the
// current steering (the per-flow override, else the live map's entry for
// hash), or -1 when ownership accounting is off.
func (t *FlowTable) OwnerOf(k FlowKey, hash uint32) int {
	if cpu, ok := t.FlowOwner(k); ok {
		return cpu
	}
	if t.owners != nil {
		return t.owners.Queue(hash)
	}
	return -1
}

// Lookup demuxes k without attributing the delivery to a CPU; see
// LookupOn.
func (t *FlowTable) Lookup(k FlowKey, hash uint32, netPackets int, aggregated bool) *tcp.Endpoint {
	return t.LookupOn(-1, k, hash, netPackets, aggregated)
}

// LookupOn demuxes k on behalf of softirq CPU cpu (-1 = unattributed),
// recording the delivery (netPackets frames in one host packet, aggregated
// or not) in the owning shard's counters. A delivery from a CPU other than
// the shard's owner counts as a steal. hash is the NIC's Toeplitz hash of
// k when available (0 recomputes in software) — on the hot path the
// hardware already paid for it, and it necessarily equals k.Hash()
// because both hash the same four-tuple. It returns nil when no endpoint
// is bound. The structural touches of the probe charge cycles.Rx at the
// capacity-miss excess: demux is part of TCP receive processing, and its
// memory traffic is the cost that grows with the registered population.
func (t *FlowTable) LookupOn(cpu int, k FlowKey, hash uint32, netPackets int, aggregated bool) *tcp.Endpoint {
	if hash == 0 {
		hash = k.Hash()
	}
	s := &t.shards[rss.ShardOf(hash, len(t.shards))]
	if cpu >= 0 && t.owners != nil {
		if owner := t.OwnerOf(k, hash); owner >= 0 && owner != cpu {
			s.stats.Steals++
		}
	}
	ref, probes := s.openLookup(hash, k)
	t.charge(cycles.Rx, openProbeLines(probes))
	ep := t.eps[ref].ep
	if ep == nil {
		s.stats.Misses++
		return nil
	}
	s.stats.HostPackets++
	s.stats.NetPackets += uint64(netPackets)
	if aggregated {
		s.stats.Aggregates++
	}
	return ep
}

// ShardStatsOf returns a copy of shard i's counters.
func (t *FlowTable) ShardStatsOf(i int) ShardStats { return t.shards[i].stats }

// Occupancy returns the endpoint count per shard (a fresh slice).
func (t *FlowTable) Occupancy() []int {
	occ := make([]int, len(t.shards))
	for i := range t.shards {
		occ[i] = t.shards[i].used
	}
	return occ
}

// TableStats is the demux structure summary: footprint, charged demux
// cycles, per-shard load factors and the probe-length distribution of the
// resident entries. It is what replaces raw per-shard dumps at
// million-endpoint scale.
type TableStats struct {
	// Entries is the registered-endpoint count, Slots the allocated slot
	// count across shards.
	Entries int `json:"entries"`
	Slots   int `json:"slots,omitempty"`
	// Bytes is the modeled structure footprint (the slot arrays, not the
	// endpoints); DemuxCycles the cycles charged for structural demux
	// touches so far.
	Bytes       uint64 `json:"bytes"`
	DemuxCycles uint64 `json:"demux_cycles"`
	// LoadMin/LoadP50/LoadMax summarize per-shard load factor
	// (used/slots) over the shards that have slots.
	LoadMin float64 `json:"load_min,omitempty"`
	LoadP50 float64 `json:"load_p50,omitempty"`
	LoadMax float64 `json:"load_max,omitempty"`
	// ProbeMin/ProbeP50/ProbeMax summarize the resident entries' probe
	// lengths; ProbeHist[i] counts entries at probe length i+1.
	ProbeMin  int      `json:"probe_min,omitempty"`
	ProbeP50  int      `json:"probe_p50,omitempty"`
	ProbeMax  int      `json:"probe_max,omitempty"`
	ProbeHist []uint64 `json:"probe_hist,omitempty"`
}

// TableStats scans the table and assembles its structure summary.
func (t *FlowTable) TableStats() TableStats {
	ts := TableStats{Entries: t.count, Bytes: t.bytes, DemuxCycles: t.DemuxCycles()}
	var loads []float64
	// byDist[d] counts the slots at probe distance d, the empty ones in
	// byDist[0], so the scan has no branch on occupancy. Only a distance
	// past the fixed histogram takes the slice, which hist grows to hold.
	var byDist [65]uint64
	var hist []uint64
	for i := range t.shards {
		s := &t.shards[i]
		if len(s.slots) == 0 {
			continue
		}
		ts.Slots += len(s.slots)
		loads = append(loads, float64(s.used)/float64(len(s.slots)))
		for j := range s.slots {
			if d := s.slots[j].dist; int(d) < len(byDist) {
				byDist[d]++
			} else {
				for len(hist) < int(d) {
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
	if hist == nil {
		top := len(byDist) - 1
		for top > 0 && byDist[top] == 0 {
			top--
		}
		if top == 0 {
			return ts
		}
		hist = make([]uint64, top)
	}
	copy(hist, byDist[1:])
	var entries uint64
	for _, c := range hist {
		entries += c
	}
	// The probe summary reads off the histogram: the shortest and longest
	// populated lengths, and the median as the length holding the
	// (entries/2)-th entry (0-based) in ascending order.
	ts.ProbeHist = hist
	ts.ProbeMax = len(hist)
	var below uint64
	for i, c := range hist {
		if c > 0 && ts.ProbeMin == 0 {
			ts.ProbeMin = i + 1
		}
		below += c
		if below > entries/2 {
			ts.ProbeP50 = i + 1
			break
		}
	}
	return ts
}
