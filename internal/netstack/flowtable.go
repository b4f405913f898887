package netstack

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
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
// however large the table is. The simulator stores each slot in 8 bytes,
// the key's remote half and the endpoint handle with no hash and no probe
// distance (flowSlot); the priced footprint does not follow it.
//
// A key's local half (its destination address and port) lives once per
// handle, in the endpoint slab, not once per slot: a handle names an
// (endpoint, local address) pair, as a kernel socket owns its own address
// pair. A key compare follows the kernel's established-hash match, which
// compares the packet's addresses against the socket's own: the slot's
// remote half first, and only on a match the handle's local half. The
// Toeplitz hash splits the same way, by XOR (rss.HashRemote ^
// rss.HashLocal), so a growth rehash rebuilds a resident's hash from its
// remote half and its handle's local share.
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

	// queues is the receive-queue count ownership follows: a flow's
	// owner is rss.QueueOf(hash, queues), the CPU polling its queue. 0
	// turns ownership (steal) accounting off.
	queues int

	// eps is the endpoint slab: slots name their endpoint and local
	// address by a uint16 handle into it, so none holds a pointer or its
	// key's local half. Handle 0 is nil, so at most MaxEndpoints handles
	// are live. free stacks the handles whose last key went; newest is
	// the handle bound last, which binding its endpoint under the same
	// local address again reuses — so a batch's keys, or a serial run of
	// inserts for one endpoint, share one handle per local address.
	eps    []epRef
	free   []uint16
	newest uint16

	// hist counts the resident entries by probe distance. Every put,
	// displacement, backward shift, growth and batch build keeps it
	// current, so TableStats reads it instead of deriving every slot's
	// distance.
	hist probeHist
	// page is what is left of the slot page that shards' first arrays are
	// carved from (firstSlots).
	page []flowSlot
}

// epRef is one endpoint slab entry: the endpoint, the local half of every
// key naming it (dst, dstPort) with that half's Toeplitz share
// (rss.HashLocal), and the number of registered keys naming it. A handle
// whose count falls to zero is free.
type epRef struct {
	ep        *tcp.Endpoint
	refs      int
	dst       ipv4.Addr
	dstPort   uint16
	localHash uint32
}

// local reports whether k's local half is the one e binds.
func (e *epRef) local(k FlowKey) bool {
	return e.dst == k.Dst && e.dstPort == k.DstPort
}

// sameLocal reports whether e and o bind the same local half.
func (e *epRef) sameLocal(o *epRef) bool {
	return e.dst == o.dst && e.dstPort == o.dstPort
}

// epSlabRoom is the slab's initial capacity, enough for a small run's
// endpoints without regrowth.
const epSlabRoom = 16

// MaxEndpoints is the most endpoint handles one table holds at once: a
// slot names its endpoint and local address by a 16-bit handle, and
// handle 0 is nil. The bound is on handles, not on endpoints or keys. Keys
// of one local address bound to one endpoint in a row (a batch, or
// consecutive inserts) share its handle, so a run's whole idle population
// takes one. Only the newest handle is shared, though: binding a key to an
// endpoint bound earlier, whose handle is no longer the newest, or under
// another local address takes a handle of its own.
const MaxEndpoints = math.MaxUint16

// ErrTooManyEndpoints is the error of an insert that needs a handle while
// all MaxEndpoints are live. That includes re-binding an endpoint that
// already holds an older handle (see MaxEndpoints).
var ErrTooManyEndpoints = fmt.Errorf("netstack: flow table already binds its maximum of %d endpoints", MaxEndpoints)

const (
	// FlowSlotBytes is the priced footprint of one open-addressed slot:
	// 12 bytes of four-tuple key, the 4-byte Toeplitz hash, the 2-byte
	// robin-hood probe distance and an 8-byte endpoint pointer, padded to
	// a half cache line so two slots share a 64-byte line and a probe run
	// streams rather than chases. It models a kernel's socket-hash slot
	// and is deliberately decoupled from the simulator's own 8-byte
	// flowSlot: what the model charges must not follow how Go stores it.
	FlowSlotBytes = 32
	// flowShardMinSlots is the initial slot-array size of a shard's first
	// insert (arrays are allocated lazily, so empty shards occupy no
	// modeled bytes).
	flowShardMinSlots = 8
	// slotPageShards is how many shards' first arrays one slot page
	// holds (firstSlots).
	slotPageShards = 8
)

// flowSlot is one open-addressed entry as the simulator stores it: 8
// bytes and no pointer, so a million-entry table is a quarter of the
// priced FlowSlotBytes layout and the garbage collector never scans it.
// Every field is at most 2-byte aligned, so a slot array has no padding.
// The slot holds only its key's remote half (src, srcPort). ref is the
// 16-bit slab handle (FlowTable.eps) of the key's endpoint and local half,
// which bounds a table to MaxEndpoints live handles; handle 0 is nil, so a
// slot whose ref is 0 is empty. Neither the key's hash nor its probe
// distance is stored: the caller's hash picks the home slot, lookups
// compare the key (holds), and where a resident's hash is needed — its
// probe distance when a probe passes it, or growth — it is rebuilt from
// the remote half and the handle's local share (hash, distAt). InsertBatch
// keeps the distances and home hashes of the shard it builds in scratch
// instead (shardBuild).
type flowSlot struct {
	src     ipv4.Addr
	srcPort uint16
	ref     uint16
}

// holds reports whether the occupied slot sl holds k, in the order of the
// kernel's established-hash match: the remote half from the slot first,
// and only on a match the local half from its handle's slab entry.
func (sl *flowSlot) holds(k FlowKey, eps []epRef) bool {
	return sl.src == k.Src && sl.srcPort == k.SrcPort && eps[sl.ref].local(k)
}

// key rebuilds the four-tuple sl holds from its remote half and its
// handle's local half.
func (sl *flowSlot) key(eps []epRef) FlowKey {
	e := &eps[sl.ref]
	return FlowKey{Src: sl.src, Dst: e.dst, SrcPort: sl.srcPort, DstPort: e.dstPort}
}

// hash rebuilds the Toeplitz hash of the key sl holds: six table lookups
// for the remote half, XORed with the handle's stored local share.
func (sl *flowSlot) hash(eps []epRef) uint32 {
	return rss.HashRemote(sl.src, sl.srcPort) ^ eps[sl.ref].localHash
}

// probeDist is the 1-based probe distance of a key hashing to h that sits
// in slot i of a shard of mask+1 slots: its displacement from its home
// slot, slotIndexHash(h) & mask.
func probeDist(i, h, mask uint32) uint32 {
	return (i-slotIndexHash(h))&mask + 1
}

// probeHist counts resident entries by probe distance d ≥ 1, indexed by
// distance (index 0 is unused). A table's is made with probeHistRoom
// counters and grows only when an entry lands past them, which only a
// pile-up does.
type probeHist []uint64

// probeHistRoom is how many counters a table's histogram is made with.
const probeHistRoom = 16

func (h *probeHist) inc(d uint32) { h.reach(d); (*h)[d]++ }
func (h *probeHist) dec(d uint32) { h.reach(d); (*h)[d]-- }

// reach grows h to hold distance d's counter.
func (h *probeHist) reach(d uint32) {
	if n := int(d) + 1; n > len(*h) {
		*h = append(*h, make([]uint64, n-len(*h))...)
	}
}

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
	// owner, the CPU polling its RSS queue (SetOwnerQueues). Zero as long
	// as the queue→shard ownership invariant holds; non-zero means a
	// flow's packets crossed CPUs and shard state is no longer CPU-local.
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
		hist:   make(probeHist, probeHistRoom),
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

// handleFor returns the slab handle that binding ep under k's local half
// takes: the newest handle when it holds ep and that local half, else the
// most recently freed one, else a new one, or ErrTooManyEndpoints when
// all MaxEndpoints are live. It reserves nothing; bind claims the handle.
func (t *FlowTable) handleFor(ep *tcp.Endpoint, k FlowKey) (uint16, error) {
	if e := &t.eps[t.newest]; e.refs > 0 && e.ep == ep && e.local(k) {
		return t.newest, nil
	}
	if n := len(t.free); n > 0 {
		return t.free[n-1], nil
	}
	if len(t.eps) > MaxEndpoints {
		return 0, ErrTooManyEndpoints
	}
	return uint16(len(t.eps)), nil
}

// bind claims h, the handle handleFor returned for k, as the newest
// handle, and gives a fresh one k's local half and its hash share. The
// caller sets the endpoint and counts the keys; until it does, unbind
// undoes the claim.
func (t *FlowTable) bind(h uint16, k FlowKey) *epRef {
	switch {
	case int(h) == len(t.eps):
		t.eps = append(t.eps, epRef{})
	case t.eps[h].refs == 0:
		t.free = t.free[:len(t.free)-1]
	}
	e := &t.eps[h]
	if e.refs == 0 {
		e.dst, e.dstPort, e.localHash = k.Dst, k.DstPort, rss.HashLocal(k.Dst, k.DstPort)
	}
	t.newest = h
	return e
}

// slabMark is the endpoint slab's lengths and newest handle, as mark
// takes them before a bind.
type slabMark struct {
	eps, free int
	newest    uint16
}

func (t *FlowTable) mark() slabMark {
	return slabMark{len(t.eps), len(t.free), t.newest}
}

// unbind undoes the binds made since m was taken, none of whose keys is
// counted yet: restoring the slab's lengths and newest handle frees every
// handle they claimed.
func (t *FlowTable) unbind(m slabMark) {
	t.eps, t.free, t.newest = t.eps[:m.eps], t.free[:m.free], m.newest
}

// release drops one key's reference to handle h; the last one frees it.
func (t *FlowTable) release(h uint16) {
	e := &t.eps[h]
	if e.refs--; e.refs == 0 {
		e.ep = nil
		t.free = append(t.free, h)
	}
}

// distAt derives the probe distance of the resident in slot i of s from
// its rebuilt hash; mask is len(s.slots)-1.
func (s *flowShard) distAt(i, mask uint32, eps []epRef) uint32 {
	return probeDist(i, s.slots[i].hash(eps), mask)
}

// openLookup probes shard s for k, returning the endpoint handle (0 =
// absent) and the probe count. Robin-hood ordering terminates a miss
// early: once a resident entry's distance is below the probe distance, k
// cannot be further along. A resident holding k sits exactly at the probe
// distance, and no distance is below 1, so only the residents that do not
// hold k and sit past k's home slot need their distance derived.
func (s *flowShard) openLookup(h uint32, k FlowKey, eps []epRef) (uint16, int) {
	if len(s.slots) == 0 {
		return 0, 1
	}
	mask := uint32(len(s.slots) - 1)
	i := slotIndexHash(h) & mask
	for p := uint32(1); ; p++ {
		sl := &s.slots[i]
		if sl.ref == 0 {
			return 0, int(p)
		}
		if sl.holds(k, eps) {
			return sl.ref, int(p)
		}
		if p > 1 && s.distAt(i, mask, eps) < p {
			return 0, int(p)
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

// firstSlots returns a shard's first slot array: flowShardMinSlots zeroed
// slots carved from the table's slot page, so slotPageShards shards' first
// inserts share one allocation. The array's capacity ends at its own
// slots, so its growth allocates rather than run into the next shard's.
func (t *FlowTable) firstSlots() []flowSlot {
	if len(t.page) == 0 {
		t.page = make([]flowSlot, slotPageShards*flowShardMinSlots)
	}
	a := t.page[:flowShardMinSlots:flowShardMinSlots]
	t.page = t.page[flowShardMinSlots:]
	return a
}

// openGrow resizes the slot array to a fresh array of n slots and
// rehashes every resident entry in old-slot order, rebuilding each one's
// hash from its remote half and its handle's local share (six table
// lookups, not twelve), and moving it in hist from its old distance to its
// new one. InsertBatch grows the shard it builds inside its reservation
// instead, from scratch that keeps every resident's home (shardBuild.grow).
func (s *flowShard) openGrow(n int, eps []epRef, hist *probeHist) {
	old := s.slots
	s.slots = make([]flowSlot, n)
	s.used = 0
	mask := uint32(len(old) - 1)
	for i := range old {
		if sl := &old[i]; sl.ref != 0 {
			h := sl.hash(eps)
			hist.dec(probeDist(uint32(i), h, mask))
			s.openPut(h, sl.key(eps), sl.ref, eps, hist)
		}
	}
}

// openPut inserts k under handle ref, whose slab entry holds k's local
// half, robin-hood displacing richer residents, and returns the number of
// slots visited and true; if k is already resident it changes nothing and
// returns false. It compares keys only until the first displacement,
// which is exactly where openLookup would stop, so its visit count is the
// probe count of a lookup miss, and a resident k is met before anything
// moves. The caller must have ensured capacity (openSlotsFor), so an
// empty slot is guaranteed within the probe run. hist counts k at the
// distance it lands at and moves each displaced resident from its old
// distance to its new one.
func (s *flowShard) openPut(h uint32, k FlowKey, ref uint16, eps []epRef, hist *probeHist) (int, bool) {
	mask := uint32(len(s.slots) - 1)
	cur := flowSlot{src: k.Src, srcPort: k.SrcPort, ref: ref}
	dist := uint32(1) // cur's probe distance at slot i
	i := slotIndexHash(h) & mask
	displaced := false
	visited := 0
	for {
		visited++
		sl := &s.slots[i]
		if sl.ref == 0 {
			*sl = cur
			s.used++
			hist.inc(dist)
			return visited, true
		}
		if !displaced && sl.holds(k, eps) {
			return visited, false
		}
		d := dist // a key at its home slot displaces no one
		if dist > 1 {
			d = s.distAt(i, mask, eps)
		}
		if d < dist {
			// Robin hood: the poorer key (further from home) takes the
			// slot; the displaced resident continues probing.
			*sl, cur = cur, *sl
			hist.dec(d)
			hist.inc(dist)
			dist = d
			displaced = true
		}
		dist++
		i = (i + 1) & mask
	}
}

// shardBuild is InsertBatch's scratch for the shard it is building, reused
// shard to shard. slots and used are the shard's slot array, inside its
// reservation, and its occupancy. For each slot, dists holds the
// resident's probe distance (0 for an empty slot, saturating at
// math.MaxUint16, past which the distance is derived from the home) and
// homes its home hash, the slotIndexHash of its Toeplitz hash, whose low
// bits name its home slot at any array size. Both move with the resident
// on every place and swap, so no put and no growth rebuilds a resident's
// hash, and a probe walk reads two bytes a slot, not the slot itself.
// staged holds a growth's residents while it re-puts them.
type shardBuild struct {
	slots  []flowSlot
	used   int
	dists  []uint16
	homes  []uint32
	staged []stagedSlot
}

// stagedSlot is a resident a growth staged, with its home hash.
type stagedSlot struct {
	sl   flowSlot
	home uint32
}

// saturated is distance d as a dists entry.
func saturated(d uint32) uint16 {
	return uint16(min(d, math.MaxUint16))
}

// begin starts building a shard whose used residents sit in slots, cut
// with the shard's reservation as capacity. It records each resident's
// distance and home, rebuilding its hash this once, and takes it out of
// hist at that distance; end puts every resident back.
func (b *shardBuild) begin(slots []flowSlot, used int, eps []epRef, hist *probeHist) {
	b.slots, b.used = slots, used
	mask := uint32(len(slots) - 1)
	for j := range slots {
		var d uint32
		if sl := &slots[j]; sl.ref != 0 {
			b.homes[j] = slotIndexHash(sl.hash(eps))
			d = (uint32(j)-b.homes[j])&mask + 1
			hist.dec(d)
		}
		b.dists[j] = saturated(d)
	}
}

// dist is the probe distance of the resident in slot i, 0 if it is empty;
// mask is len(b.slots)-1.
func (b *shardBuild) dist(i, mask uint32) uint32 {
	if d := b.dists[i]; d != math.MaxUint16 {
		return uint32(d)
	}
	return (i-b.homes[i])&mask + 1
}

// grow doubles the shard to n slots inside its reservation and re-puts
// every resident in old-slot order, as openGrow does, so each lands where
// Insert's growth would put it. It stages the residents with their homes,
// so none has its hash rebuilt, and places each one from its new home
// slot: straight at the first empty slot when no resident on the way sits
// nearer its own home, which only a resident that wrapped past the old
// array's end can, else by the robin-hood put (place).
func (b *shardBuild) grow(n int) {
	old := b.slots
	staged := b.staged[:0]
	for j, d := range b.dists[:len(old)] {
		if d != 0 {
			staged = append(staged, stagedSlot{old[j], b.homes[j]})
		}
	}
	clear(old)
	clear(b.dists[:n])
	b.slots = old[:n]
	mask := uint32(n - 1)
	for _, st := range staged {
		i := st.home & mask
		for dist := uint32(1); ; dist++ {
			d := b.dist(i, mask)
			if d == 0 {
				b.slots[i], b.homes[i], b.dists[i] = st.sl, st.home, saturated(dist)
				break
			}
			if d < dist {
				b.place(i, st.sl, st.home, dist)
				break
			}
			i = (i + 1) & mask
		}
	}
}

// put inserts the key of remote half (src, srcPort) and of handle ref's
// local half, whose home hash is home, under ref, and returns what openPut
// would: the slots visited and true, or false with nothing changed if the
// key is already resident. A resident holding the key shares its home, so
// the put meets it at exactly the distance it has probed to; it compares
// keys only at a resident of that distance, and only up to its first
// displacement, after which place carries on. The key comes as its remote
// half alone: its local half is ref's.
func (b *shardBuild) put(home uint32, src ipv4.Addr, srcPort, ref uint16, eps []epRef) (int, bool) {
	mask := uint32(len(b.slots) - 1)
	i := home & mask
	for dist := uint32(1); ; dist++ {
		d := b.dist(i, mask)
		if d < dist {
			b.used++
			if d == 0 {
				sl := &b.slots[i]
				sl.src, sl.srcPort, sl.ref = src, srcPort, ref
				b.homes[i], b.dists[i] = home, saturated(dist)
				return int(dist), true
			}
			cur := flowSlot{src: src, srcPort: srcPort, ref: ref}
			return int(dist) - 1 + b.place(i, cur, home, dist), true
		}
		if sl := &b.slots[i]; d == dist && sl.src == src && sl.srcPort == srcPort && eps[sl.ref].sameLocal(&eps[ref]) {
			return int(dist), false
		}
		i = (i + 1) & mask
	}
}

// place puts sl, whose home hash is home, in slot i, at probe distance
// dist, or past it: robin-hood displacing richer residents without
// comparing keys, as openPut does once it has displaced one. It returns
// the slots visited from i on.
func (b *shardBuild) place(i uint32, sl flowSlot, home, dist uint32) int {
	mask := uint32(len(b.slots) - 1)
	for visited := 1; ; visited++ {
		d := b.dist(i, mask)
		if d == 0 {
			b.slots[i], b.homes[i], b.dists[i] = sl, home, saturated(dist)
			return visited
		}
		if d < dist {
			b.slots[i], sl = sl, b.slots[i]
			b.homes[i], home = home, b.homes[i]
			b.dists[i] = saturated(dist)
			dist = d
		}
		dist++
		i = (i + 1) & mask
	}
}

// end counts the built shard's residents into hist at their distances
// and returns its slot array. It grows hist once, to the longest stored
// distance, then indexes it by each stored distance; an empty slot's 0
// lands in hist[0], which is restored after, so the scan has no branch on
// occupancy. Only a saturated distance sends the scan to derive each
// distance from its home.
func (b *shardBuild) end(hist *probeHist) []flowSlot {
	dists := b.dists[:len(b.slots)]
	var longest uint16
	for _, d := range dists {
		longest = max(longest, d)
	}
	if longest == math.MaxUint16 {
		mask := uint32(len(b.slots) - 1)
		for j, d := range dists {
			if d != 0 {
				hist.inc(b.dist(uint32(j), mask))
			}
		}
		return b.slots
	}
	hist.reach(uint32(longest))
	h := *hist
	empty := h[0]
	for _, d := range dists {
		h[d]++
	}
	h[0] = empty
	return b.slots
}

// openRemove deletes k with backward-shift compaction (successor entries
// slide one slot toward home, keeping probe runs tight for every later
// lookup), returning k's endpoint handle (0 = not resident) and the slots
// visited. hist drops k and moves each shifted successor one distance
// nearer home.
func (s *flowShard) openRemove(h uint32, k FlowKey, eps []epRef, hist *probeHist) (uint16, int) {
	if len(s.slots) == 0 {
		return 0, 1
	}
	mask := uint32(len(s.slots) - 1)
	i := slotIndexHash(h) & mask
	for p := uint32(1); ; p++ {
		sl := &s.slots[i]
		if sl.ref == 0 {
			return 0, int(p)
		}
		if sl.holds(k, eps) {
			ref := sl.ref
			hist.dec(p)
			for {
				j := (i + 1) & mask
				if s.slots[j].ref == 0 {
					break
				}
				d := s.distAt(j, mask, eps)
				if d == 1 {
					break
				}
				hist.dec(d)
				hist.inc(d - 1)
				s.slots[i] = s.slots[j]
				i = j
			}
			s.slots[i] = flowSlot{}
			s.used--
			return ref, int(p)
		}
		if p > 1 && s.distAt(i, mask, eps) < p {
			return 0, int(p)
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

// Insert registers ep under k. A duplicate key errors, and so does a key
// that needs a new handle while all MaxEndpoints are live
// (ErrTooManyEndpoints); only the newest handle is shared, by a key of its
// endpoint and local half.
// Either error leaves the table and its charges untouched. The structural
// touches (probe chase plus entry write) charge cycles.NonProto at the
// capacity-miss excess — socket-hash insertion is connection-setup work,
// not receive protocol processing.
//
// The put itself finds a duplicate, before it moves anything, so a key's
// probe run is walked once. Two cases look the key up first instead: a
// growth due before the put, which must not run for a duplicate, and no
// handle left, where a duplicate still reports as one.
func (t *FlowTable) Insert(k FlowKey, ep *tcp.Endpoint) error {
	h := k.Hash()
	s := &t.shards[rss.ShardOf(h, len(t.shards))]
	slots, used := len(s.slots), s.used
	n := openSlotsFor(slots, used)
	ref, err := t.handleFor(ep, k)
	if err != nil || (slots != 0 && n != slots) {
		if found, _ := s.openLookup(h, k, t.eps); found != 0 {
			return t.dupErr(k)
		}
		if err != nil {
			return err
		}
	}
	m := t.mark()
	e := t.bind(ref, k)
	switch {
	case slots == 0:
		s.slots = t.firstSlots()
	case n != slots:
		s.openGrow(n, t.eps, &t.hist)
	}
	probes, ok := s.openPut(h, k, ref, t.eps, &t.hist)
	if !ok {
		t.unbind(m)
		return t.dupErr(k)
	}
	e.ep = ep
	e.refs++
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

// batchBlock is InsertBatch's grouping block: each run of batchBlock keys
// is grouped by shard on its own, so a key's place in its group is a
// 16-bit offset into its block.
const batchBlock = 1 << 16

// epochLines is how many probe-run lengths, 1 to epochLines lines, each
// of InsertBatch's footprint epochs prices ahead of its keys.
const epochLines = 4

// InsertBatch registers ep under key(0), …, key(n-1) and leaves the table
// exactly as n calls to Insert in index order would: the same slots in
// every shard, the same footprint, counters, meter and demux cycles. On a
// duplicate, or with no handle left for a key that needs one, it stops
// where that loop would, with the keys before it registered and the same
// error.
//
// The batch builds the table shard by shard, so bulk population works on
// one cache-resident shard at a time instead of scattering consecutive
// inserts over the whole table:
//
//  1. Group and reserve: walk the keys in index order, hash each one and
//     apply the growth rule to its shard's running slot count and
//     occupancy. A key whose local half differs from the key before it
//     (or key 0) opens a run and claims the handle its Insert would take
//     (bind); the run's later keys share it. bind has computed the local
//     half's hash share, so each key hashes only its remote half
//     (rss.HashRemote). The growths come out in index order and cut the
//     batch into footprint epochs: key i's epoch is the growths at indices
//     up to i, its own included, so its probe charge sees the footprint
//     Insert's charge would. Each epoch's cold fraction is computed once,
//     with the probe charges of runs of 1 to epochLines lines at it, and
//     each growth's rehash charge is priced at the footprint it leaves.
//     Each block of batchBlock keys is counting-sorted by shard into
//     16-bit offsets under a per-(block, shard) start table. Then every
//     touched shard's final slot array is reserved, all of them cut from
//     one slab.
//  2. Insert: fill each shard with its keys in index order, block by
//     block, hashing each key's remote half again. The shard being built
//     keeps each slot's probe distance and home hash in scratch
//     (shardBuild), so a put walks the distances, not the slots, and
//     compares keys only at a resident of its own distance: a duplicate
//     shares its home. Growth doubles inside the reservation and re-puts
//     the residents in old-slot order from their stored homes, like
//     Insert's growth but with no hash rebuilt, so every slot lands where
//     Insert would put it. A per-shard cursor over the epochs prices each
//     key's probe run at its epoch, and one over the runs names its handle
//     and hash share. The shard's residents leave the probe-distance
//     histogram at their distances when its build starts (derived, for
//     the residents from before the batch) and rejoin it at those the
//     scratch holds when it ends, in a histogram of the batch's own.
//     Nothing is committed or charged until every shard is built, so on
//     a duplicate the batch discards its work, releases its runs'
//     handles and reruns over the keys before it. A run that finds no
//     handle does the same at the run's first key.
//
// The commit then applies the summed charge once, merges the histogram's
// change and counts each run's keys on its handle. That is exact because
// a cycles.Meter keeps only a per-category sum: the per-key charges
// Insert would make, added in another order, give the same meter and
// demux cycles.
//
// The scratch is two bytes per key (its offset in its block's shard
// group), one byte per key of a block (the block's shards, reused block
// to block), the start table, one epoch record per possible growth and a
// closing one, six bytes per slot of the largest touched shard (its
// distances and homes, reused shard to shard), twelve bytes per resident
// of the largest growth (its staging), a few words per shard, and a run
// list that allocates only when the local half changes within the batch.
func (t *FlowTable) InsertBatch(n int, key func(int) FlowKey, ep *tcp.Endpoint) error {
	if n <= 0 {
		return nil
	}
	// An unpriced table prices at the zero memory model, whose capacity
	// charges are all zero.
	var mem memmodel.Params
	if t.meter != nil {
		mem = t.params.Mem
	}

	// A run binds keys from key onward to handle ref, up to the next run's
	// first key; a closing run at key n ends the list. Pass 1 claims each
	// run's handle with no key counted yet; unbind releases the claims on
	// every exit short of the commit.
	type run struct {
		key int
		ref uint16
	}
	// A batch of one local half, the common case, keeps its run and the
	// closing one on the stack.
	var twoRuns [2]run
	runs := twoRuns[:0]
	unclaimed := t.mark()

	// Pass 1: in index order, find the runs and the growths, price the
	// epochs, and group each block by shard. The block starting at key lo
	// puts shard si's offsets, ascending, in grouped[start[r]:start[r+1]]
	// with r = lo/batchBlock*nShards + si.
	nShards := len(t.shards)
	// blockShard holds a shard index in a byte: this fails to compile if
	// the bucket count, which bounds the shard count, outgrows it.
	const _ uint8 = rss.Buckets - 1
	blockShard := make([]uint8, min(n, batchBlock))
	grouped := make([]uint16, n)
	start := make([]int, (n+batchBlock-1)/batchBlock*nShards+1)
	// plan holds each shard's slot count and occupancy as the inserts land
	// in index order and its placement cursor in the current block, then
	// its reservation, in which pass 2 builds it.
	plan := make([]struct {
		slots, used, next int
		built             []flowSlot
	}, nShards)
	for si := range plan {
		plan[si].slots, plan[si].used = len(t.shards[si].slots), t.shards[si].used
	}
	// An epoch opens at the key whose insert grows a shard (the first at
	// key 0) and prices at its footprint's cold fraction: price[l-1] is
	// the charge of an l-line probe run. Each insert grows at most one
	// shard, and a shard ending up with m entries has grown at most
	// bits.Len(m) times (to flowShardMinSlots, then by doublings to fewer
	// than 8m/3 slots), which bounds their number. A closing epoch at key
	// n ends the list.
	type epoch struct {
		key   int
		cold  float64
		price [epochLines]uint64
	}
	footprint := t.bytes
	epochs := make([]epoch, 0, 2+min(n, nShards*bits.Len(uint(t.count+n))))
	openEpoch := func(key int) float64 {
		e := epoch{key: key, cold: mem.CapacityColdFraction(footprint)}
		for l := range e.price {
			e.price[l] = mem.CapacityTouchCostAt(l+1, e.cold)
		}
		epochs = append(epochs, e)
		return e.cold
	}
	openEpoch(0)
	// stage is the most residents a growth re-puts.
	stage := 0
	var demux uint64
	var local FlowKey // the current run's local half
	var localHash uint32
	for lo := 0; lo < n; lo += batchBlock {
		block := blockShard[:min(batchBlock, n-lo)]
		count := start[lo/batchBlock*nShards:][:nShards+1]
		for j := range block {
			k := key(lo + j)
			if lo+j == 0 || k.Dst != local.Dst || k.DstPort != local.DstPort {
				ref, err := t.handleFor(ep, k)
				if err != nil {
					// The Insert of this run's first key fails, as a
					// duplicate or for want of a handle.
					t.unbind(unclaimed)
					if err := t.InsertBatch(lo+j, key, ep); err != nil {
						return err
					}
					return t.Insert(k, ep)
				}
				localHash = t.bind(ref, k).localHash
				runs = append(runs, run{lo + j, ref})
				local = k
			}
			si := rss.ShardOf(rss.HashRemote(k.Src, k.SrcPort)^localHash, nShards)
			block[j] = uint8(si)
			count[si+1]++
			c := &plan[si]
			if g := openSlotsFor(c.slots, c.used); g != c.slots {
				footprint += uint64(g-c.slots) * FlowSlotBytes
				cold := openEpoch(lo + j)
				demux += mem.CapacityStreamCostAt((c.slots+g)*FlowSlotBytes, cold)
				stage = max(stage, c.used)
				c.slots = g
			}
			c.used++
		}
		for si := range plan {
			count[si+1] += count[si]
			plan[si].next = count[si]
		}
		for j, si := range block {
			grouped[plan[si].next] = uint16(j)
			plan[si].next++
		}
	}
	epochs = append(epochs, epoch{key: n})
	runs = append(runs, run{key: n})

	// Reserve each touched shard's final array from one slab, each cut
	// with its capacity ending at its own slots, so growing in place
	// never runs into the next shard's. The build scratch is sized for the
	// largest final array and the largest growth.
	total, widest := 0, 0
	for si := range t.shards {
		if c := &plan[si]; c.used != t.shards[si].used {
			total += c.slots
			widest = max(widest, c.slots)
		}
	}
	slab := make([]flowSlot, total)
	for si := range t.shards {
		s, c := &t.shards[si], &plan[si]
		if c.used == s.used {
			continue
		}
		c.built = slab[:len(s.slots):c.slots]
		slab = slab[c.slots:]
		copy(c.built, s.slots)
	}
	b := shardBuild{
		dists:  make([]uint16, widest),
		homes:  make([]uint32, widest),
		staged: make([]stagedSlot, 0, stage),
	}

	// Pass 2: build each shard in its reservation, pricing each key's
	// probe run at its epoch and binding it under its run's handle. The
	// shard's residents leave the probe-distance histogram as it starts
	// and rejoin it, at their final distances, once it is built. A
	// duplicate abandons the batch, and the histogram is recounted from
	// the slot arrays, which the build never touches.
	firstDup := n
	for si := range plan {
		c := &plan[si]
		if c.used == t.shards[si].used {
			continue
		}
		b.begin(c.built, t.shards[si].used, t.eps, &t.hist)
		r, e, at := 0, 0, &epochs[0]
		ref, share := runs[0].ref, t.eps[runs[0].ref].localHash
		nextRun, nextEpoch := runs[1].key, epochs[1].key
	blocks:
		for lo := 0; lo < n; lo += batchBlock {
			g := lo/batchBlock*nShards + si
			for _, off := range grouped[start[g]:start[g+1]] {
				i := lo + int(off)
				if i >= firstDup {
					break blocks
				}
				if slots := openSlotsFor(len(b.slots), b.used); slots != len(b.slots) {
					b.grow(slots)
				}
				for i >= nextRun {
					r++
					ref, share, nextRun = runs[r].ref, t.eps[runs[r].ref].localHash, runs[r+1].key
				}
				k := key(i)
				probes, ok := b.put(slotIndexHash(rss.HashRemote(k.Src, k.SrcPort)^share), k.Src, k.SrcPort, ref, t.eps)
				if !ok {
					firstDup = i
					break blocks
				}
				for i >= nextEpoch {
					e++
					at, nextEpoch = &epochs[e], epochs[e+1].key
				}
				if lines := openProbeLines(probes); lines <= epochLines {
					demux += at.price[lines-1]
				} else {
					demux += mem.CapacityTouchCostAt(lines, at.cold)
				}
			}
		}
		c.built = b.end(&t.hist)
	}
	if firstDup < n {
		t.recount()
		t.unbind(unclaimed)
		if err := t.InsertBatch(firstDup, key, ep); err != nil {
			return err
		}
		return t.dupErr(key(firstDup))
	}

	// Commit.
	for si := range t.shards {
		s, c := &t.shards[si], &plan[si]
		if keys := c.used - s.used; keys > 0 {
			s.slots, s.used = c.built, c.used
			s.stats.Endpoints += keys
		}
	}
	for r, ru := range runs[:len(runs)-1] {
		e := &t.eps[ru.ref]
		e.ep = ep
		e.refs += runs[r+1].key - ru.key
	}
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
	ref, _ := t.shards[rss.ShardOf(h, len(t.shards))].openLookup(h, k, t.eps)
	return t.eps[ref].ep
}

// Remove unregisters the endpoint bound to k, reporting whether it
// existed. Structural touches charge cycles.NonProto like Insert's.
func (t *FlowTable) Remove(k FlowKey) bool {
	h := k.Hash()
	s := &t.shards[rss.ShardOf(h, len(t.shards))]
	ref, probes := s.openRemove(h, k, t.eps, &t.hist)
	if ref == 0 {
		return false
	}
	t.charge(cycles.NonProto, openProbeLines(probes))
	t.release(ref)
	s.stats.Endpoints--
	t.count--
	return true
}

// SetOwnerQueues turns ownership (steal) accounting on for a machine
// with queues receive queues (0: off). A flow's owner is then the CPU
// that polls its static RSS queue, rss.QueueOf(hash, queues).
func (t *FlowTable) SetOwnerQueues(queues int) { t.queues = queues }

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
	if cpu >= 0 && t.queues > 0 && rss.QueueOf(hash, t.queues) != cpu {
		s.stats.Steals++
	}
	ref, probes := s.openLookup(hash, k, t.eps)
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

// recount rebuilds the probe-distance histogram from every resident's
// rebuilt hash.
func (t *FlowTable) recount() {
	clear(t.hist)
	for si := range t.shards {
		s := &t.shards[si]
		mask := uint32(len(s.slots) - 1)
		for i := range s.slots {
			if sl := &s.slots[i]; sl.ref != 0 {
				t.hist.inc(probeDist(uint32(i), sl.hash(t.eps), mask))
			}
		}
	}
}

// TableStats assembles the table's structure summary: the load factors
// from the shards' occupancy, the probe summary from the maintained
// probe-distance histogram, without visiting a slot.
func (t *FlowTable) TableStats() TableStats {
	ts := TableStats{Entries: t.count, Bytes: t.bytes, DemuxCycles: t.DemuxCycles()}
	var loads []float64
	for i := range t.shards {
		s := &t.shards[i]
		if len(s.slots) == 0 {
			continue
		}
		ts.Slots += len(s.slots)
		loads = append(loads, float64(s.used)/float64(len(s.slots)))
	}
	if len(loads) > 0 {
		sort.Float64s(loads)
		ts.LoadMin, ts.LoadP50, ts.LoadMax = loads[0], loads[len(loads)/2], loads[len(loads)-1]
	}
	// The histogram runs from distance 1 to the longest populated one.
	hist := t.hist[1:]
	for len(hist) > 0 && hist[len(hist)-1] == 0 {
		hist = hist[:len(hist)-1]
	}
	if len(hist) == 0 {
		return ts
	}
	hist = slices.Clone(hist)
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
