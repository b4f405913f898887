package netstack

import (
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/tcp"
)

// This file implements the TIME_WAIT subsystem: the table of torn-down
// flows whose demux entries linger for 2·MSL so retransmitted FINs still
// find an endpoint to ACK, plus SYN-time port reuse against those
// lingering entries (RFC 6191 / Linux tcp_tw_reuse).
//
// The structure is scale-honest. A production restart storm leaves
// hundreds of thousands of entries lingering at once, so the flat slice
// the table used to be — an O(n) duplicate scan on every insert and a
// full-slice sweep on every reap — would melt exactly the receive path
// the paper's argument (and this repo's sharding) protects: per-packet
// work must not grow with connection-table population ("Algorithms and
// Data Structures to Accelerate Network Analysis", Ros-Giralt et al.).
// Instead the table is sharded by the same RSS bucket as the flow table
// (the one softirq CPU that owns a flow's demux shard also owns its
// TIME_WAIT entry), and each shard keeps
//
//   - a map keyed by four-tuple: O(1) duplicate detection at insert and
//     O(1) collision lookup at SYN time, and
//   - a hashed deadline wheel (twWheelSlots slots of twTickNs): insert
//     links the entry into the slot its deadline falls in, kept
//     deadline-sorted, and a reap sweep walks only the slots whose tick
//     has elapsed — and within each, only the due prefix plus one
//     boundary probe (sorted order means the first not-yet-due entry
//     ends the slot's work; later-lap entries hashed into the same slot
//     are never inspected). O(1) amortized per entry, independent of
//     how many entries linger.
//
// A slot is an intrusive list threaded through the entries, and an
// entry that leaves the wheel goes to the table's free list, so a warm
// table links and unlinks entries without allocating.
//
// Cycle charges scale with the real touches (entry init, bucket link,
// map update, demux removal), priced through the machine's memory model
// like every other per-packet cost, instead of the single flat lock
// charge the slice implementation made.

const (
	// twWheelSlots is the number of deadline-wheel slots per shard; with
	// twTickNs granularity the wheel spans slots×tick before an entry
	// shares a slot with a later lap (handled by the per-entry deadline
	// check, never by extra scans).
	twWheelSlots = 32
	// twTickNs is the wheel granularity. Reaping is quantized to it: an
	// entry is reclaimed on the first sweep after its deadline's tick has
	// fully elapsed (TIME_WAIT expiry needs no better precision).
	twTickNs = 1_000_000
)

// TimeWaitEntryBytes models the memory footprint of one lingering entry
// — a Linux tcp_timewait_sock is a ~200-byte shadow of the socket
// (demux keys, deadline link, final sequence/timestamp state). It sizes
// the occupancy report and prices the entry-init stream at insert
// through the machine's memory model.
const TimeWaitEntryBytes = 192

// twEntry is one TIME_WAIT entry: the lingering four-tuple, its reap
// deadline, and the old incarnation's final receive state that the
// RFC 6191 reuse-admissibility check compares a reconnect against.
type twEntry struct {
	key      FlowKey
	deadline uint64
	lastTS   uint32 // last peer TSVal the old incarnation echoed
	rcvNxt   uint32 // next sequence the old incarnation expected
	// dead marks an entry recycled by SYN-time reuse: it has already
	// left the map and the live count, and its wheel link is dropped
	// whenever its slot is next swept (O(1) unlink without scanning the
	// slot at reuse time).
	dead bool
	// next links the entry into its wheel slot, or into the free list
	// once it has left the wheel.
	next *twEntry
}

// twSlot is one wheel slot: a deadline-sorted list of entries.
type twSlot struct{ head, tail *twEntry }

// link inserts e in deadline order, after any entry with an equal
// deadline. Deadlines arrive (near-)monotone — now + a fixed linger, or
// a monotone seeded spread — so the append at the tail is the common
// case.
func (s *twSlot) link(e *twEntry) {
	switch {
	case s.tail == nil:
		s.head, s.tail = e, e
	case s.tail.deadline <= e.deadline:
		s.tail.next, s.tail = e, e
	default:
		p := &s.head
		for (*p).deadline <= e.deadline {
			p = &(*p).next
		}
		e.next, *p = *p, e
	}
}

// pop unlinks and returns the slot's first entry.
func (s *twSlot) pop() *twEntry {
	e := s.head
	s.head, e.next = e.next, nil
	if s.head == nil {
		s.tail = nil
	}
	return e
}

// twShard is one shard of the table: the entries whose RSS hash falls in
// the shard's buckets, owned by the same softirq CPU as the flow-table
// shard of the same index.
type twShard struct {
	entries map[FlowKey]*twEntry
	wheel   [twWheelSlots]twSlot
	cursor  uint64 // next wheel tick not yet swept
	live    int    // entries excluding tombstones
	tombs   int    // dead entries still linked in wheel slots
}

// TimeWaitStats summarizes the table.
type TimeWaitStats struct {
	// Entered counts insertions (real teardowns and seeded backlog);
	// Reaped counts deadline expiries; Reused counts entries recycled by
	// SYN-time port reuse; ReuseRefused counts reconnects the
	// admissibility check turned away. Evicted counts entries dropped
	// early under tcp_max_tw_buckets pressure, and PressureRefused the
	// insertions turned away at the cap in refusal mode (the flow skips
	// TIME_WAIT entirely, Linux's "time wait bucket table overflow"). At
	// all times Entered = Reaped + Reused + Evicted + Len.
	Entered, Reaped, Reused, ReuseRefused uint64
	Evicted, PressureRefused              uint64
	// Len is the current number of lingering entries, Peak the run's
	// high-water mark, and Bytes/PeakBytes their modeled footprint
	// (TimeWaitEntryBytes each).
	Len, Peak        int
	Bytes, PeakBytes uint64
}

// timeWaitTable is the sharded deadline wheel.
type timeWaitTable struct {
	// shards is allocated on the first insert (nil until then: a run that
	// tears no flow down never touches it); nShards is its length.
	shards  []twShard
	nShards int

	live int
	peak int

	// maxPerShard caps each shard's live entries (0 = unlimited), the
	// per-shard share of tcp_max_tw_buckets. evictOldest selects the
	// over-cap behavior: evict the shard's oldest-deadline entry to admit
	// the new one, or refuse the insertion (Linux's default: the closing
	// flow skips TIME_WAIT entirely).
	maxPerShard int
	evictOldest bool

	entered, reaped, reused, refused uint64
	evicted, pressureRefused         uint64

	// free lists the entries that have left both the map and the wheel,
	// for newEntry to reuse.
	free *twEntry
}

// newEntry returns a zeroed entry, reusing a freed one when it can.
func (t *timeWaitTable) newEntry() *twEntry {
	e := t.free
	if e == nil {
		return new(twEntry)
	}
	t.free = e.next
	*e = twEntry{}
	return e
}

// freeEntry returns an entry that is in neither the map nor the wheel to
// the free list.
func (t *timeWaitTable) freeEntry(e *twEntry) {
	e.next, t.free = t.free, e
}

func newTimeWaitTable(shards int) *timeWaitTable {
	return &timeWaitTable{nShards: shards}
}

// configure sets the table-wide live-entry cap (tcp_max_tw_buckets; 0 =
// unlimited), split evenly across shards like the kernel's per-hash-chain
// pressure, and the over-cap behavior.
func (t *timeWaitTable) configure(maxBuckets int, evictOldest bool) {
	if maxBuckets <= 0 {
		t.maxPerShard = 0
	} else {
		t.maxPerShard = (maxBuckets + t.nShards - 1) / t.nShards
		if t.maxPerShard < 1 {
			t.maxPerShard = 1
		}
	}
	t.evictOldest = evictOldest
}

// oldest returns the shard's live entry with the earliest deadline (the
// eviction victim), or nil. Each wheel slot is deadline-sorted, so only
// the first live entry per slot competes: at most twWheelSlots probes,
// independent of occupancy.
func (sh *twShard) oldest() *twEntry {
	var best *twEntry
	for i := range sh.wheel {
		for e := sh.wheel[i].head; e != nil; e = e.next {
			if e.dead {
				continue
			}
			if best == nil || e.deadline < best.deadline {
				best = e
			}
			break
		}
	}
	return best
}

// insert links a new entry. It reports false on a live duplicate or a
// pressure refusal; when eviction mode displaced an oldest-deadline
// victim to admit e, the victim (already tombstoned and uncounted) is
// returned for the caller to unregister.
func (t *timeWaitTable) insert(shard int, e *twEntry) (bool, *twEntry) {
	if t.shards == nil {
		t.shards = make([]twShard, t.nShards)
	}
	sh := &t.shards[shard]
	if sh.entries == nil {
		sh.entries = make(map[FlowKey]*twEntry)
	}
	if _, dup := sh.entries[e.key]; dup {
		return false, nil
	}
	var victim *twEntry
	if t.maxPerShard > 0 && sh.live >= t.maxPerShard {
		if !t.evictOldest {
			t.pressureRefused++
			return false, nil
		}
		if victim = sh.oldest(); victim != nil {
			delete(sh.entries, victim.key)
			victim.dead = true
			sh.live--
			sh.tombs++
			t.live--
			t.evicted++
		}
	}
	tick := e.deadline / twTickNs
	if sh.live == 0 || tick < sh.cursor {
		// An empty shard's cursor is stale; a deadline already due slots
		// behind the cursor and must pull it back or it would wait a
		// full wheel lap.
		sh.cursor = tick
	}
	// Keep the slot deadline-sorted so reaping can stop at the first
	// not-yet-due entry.
	sh.wheel[tick%twWheelSlots].link(e)
	sh.entries[e.key] = e
	sh.live++
	t.live++
	if t.live > t.peak {
		t.peak = t.live
	}
	t.entered++
	return true, victim
}

// lookup returns the live entry for k, or nil.
func (t *timeWaitTable) lookup(shard int, k FlowKey) *twEntry {
	if t.shards == nil {
		return nil
	}
	return t.shards[shard].entries[k]
}

// recycle removes an entry at SYN-time reuse: out of the map and the
// live count immediately, tombstoned in its wheel slot.
func (t *timeWaitTable) recycle(shard int, e *twEntry) {
	sh := &t.shards[shard]
	delete(sh.entries, e.key)
	e.dead = true
	sh.live--
	sh.tombs++
	t.live--
	t.reused++
}

// reap sweeps every shard's elapsed wheel ticks, invoking each for every
// entry whose deadline has passed; the entry is freed for reuse once each
// returns. Only slots whose tick elapsed are touched, a slot is walked at
// most once per sweep (ticks repeat with period twWheelSlots, so a sweep
// that fell behind clamps to one lap), and within a slot only the
// deadline-sorted due prefix is consumed — the first not-yet-due entry
// ends the slot, so later-lap entries hashed into it are never
// inspected. Tombstones are dropped as their deadlines come due (or
// wholesale once the shard has no live entry).
func (t *timeWaitTable) reap(now uint64, each func(*twEntry)) {
	nowTick := now / twTickNs
	for si := range t.shards {
		sh := &t.shards[si]
		if sh.live == 0 {
			if sh.tombs > 0 {
				// Every remaining link is a tombstone: drop them all
				// rather than waiting for their slots' ticks.
				for i := range sh.wheel {
					for sh.wheel[i].head != nil {
						t.freeEntry(sh.wheel[i].pop())
					}
				}
				sh.tombs = 0
			}
			sh.cursor = nowTick
			continue
		}
		if sh.cursor >= nowTick {
			continue
		}
		start := sh.cursor
		if nowTick-start > twWheelSlots {
			start = nowTick - twWheelSlots
		}
		for tick := start; tick < nowTick; tick++ {
			slot := &sh.wheel[tick%twWheelSlots]
			for slot.head != nil && now >= slot.head.deadline {
				e := slot.pop()
				if e.dead {
					sh.tombs--
					t.freeEntry(e)
					continue
				}
				delete(sh.entries, e.key)
				sh.live--
				t.live--
				t.reaped++
				each(e)
				t.freeEntry(e)
			}
		}
		sh.cursor = nowTick
	}
}

// stats assembles the aggregate summary.
func (t *timeWaitTable) stats() TimeWaitStats {
	return TimeWaitStats{
		Entered:         t.entered,
		Reaped:          t.reaped,
		Reused:          t.reused,
		ReuseRefused:    t.refused,
		Evicted:         t.evicted,
		PressureRefused: t.pressureRefused,
		Len:             t.live,
		Peak:            t.peak,
		Bytes:           uint64(t.live) * TimeWaitEntryBytes,
		PeakBytes:       uint64(t.peak) * TimeWaitEntryBytes,
	}
}

// ConfigureTimeWait sets tcp_max_tw_buckets for the stack: at most
// maxBuckets flows may linger in TIME_WAIT (0 = unlimited), the cap split
// evenly across shards. Over the cap, evictOldest selects Linux-matching
// pressure behavior: false refuses the new entry — the closing flow skips
// TIME_WAIT entirely (the kernel's default, logged as "time wait bucket
// table overflow") — while true evicts the shard's oldest-deadline entry
// early to admit the new one. Evicted flows are unregistered immediately
// and their keys surface through the next ReapTimeWait, so peer-side
// state releases through the same path as an expiry.
func (s *Stack) ConfigureTimeWait(maxBuckets int, evictOldest bool) {
	s.tw.configure(maxBuckets, evictOldest)
}

// dropEvicted finishes a pressure eviction: the victim's demux entry is
// removed (charged like any TIME_WAIT removal) and its key queued for the
// next reap's return value.
func (s *Stack) dropEvicted(e *twEntry) {
	registered := s.table.Remove(e.key)
	s.chargeTWRemove(registered)
	s.twEvicted = append(s.twEvicted, e.key)
}

// chargeTWInsert prices one entry insertion: the entry init streams
// through the store buffer; linking it into the wheel slot and the shard
// map chases two cold lines.
func (s *Stack) chargeTWInsert() {
	s.meter.Charge(cycles.NonProto,
		s.params.Mem.SequentialWriteCost(TimeWaitEntryBytes)+
			s.params.Mem.RandomTouchCost(2)+
			s.params.LockCost(1))
}

// chargeTWRemove prices taking one entry out (deadline reap or SYN-time
// recycle): the entry and its map bucket are cold by now (two dependent
// line misses), plus the demux-table mutation when the flow was still
// registered.
func (s *Stack) chargeTWRemove(registered bool) {
	lines := 2
	if registered {
		lines++
	}
	s.meter.Charge(cycles.NonProto,
		s.params.Mem.RandomTouchCost(lines)+s.params.LockCost(1))
}

// EnterTimeWait moves the flow keyed by the given addressing into the
// TIME_WAIT table: its demux entry stays live — a retransmitted FIN must
// still find the endpoint and be ACKed — but the flow is scheduled for
// unregistration once deadline passes (the 2·MSL linger, scaled to
// simulation time). The endpoint's final receive state (TS.Recent,
// RCV.NXT) is snapshotted into the entry for the SYN-time reuse
// admissibility check. It reports false when the flow is not registered
// or already waiting.
func (s *Stack) EnterTimeWait(remoteIP, localIP ipv4.Addr, remotePort, localPort uint16, deadline uint64) bool {
	k := FlowKey{Src: remoteIP, Dst: localIP, SrcPort: remotePort, DstPort: localPort}
	ep := s.table.Peek(k)
	if ep == nil {
		return false
	}
	return s.insertTimeWait(k, deadline, ep.TSRecent(), ep.RcvNxt())
}

// SeedTimeWait inserts a lingering entry with no live endpoint behind it
// — the restart-storm backlog of a server whose previous process left
// far more TIME_WAIT incarnations than it has live flows. Seeded entries
// age, reap and recycle exactly like real ones (the demux removal at
// reap is simply a no-op); lastTS and rcvNxt seed the reuse check. It
// reports false on a duplicate.
func (s *Stack) SeedTimeWait(k FlowKey, deadline uint64, lastTS, rcvNxt uint32) bool {
	return s.insertTimeWait(k, deadline, lastTS, rcvNxt)
}

// insertTimeWait admits one entry into k's shard: a pressure victim the
// shard gives up is dropped first, a refused or duplicate entry goes back
// to the free list, and an admitted one is charged and counted against
// the memory budget. It reports whether the entry was admitted.
func (s *Stack) insertTimeWait(k FlowKey, deadline uint64, lastTS, rcvNxt uint32) bool {
	e := s.tw.newEntry()
	*e = twEntry{key: k, deadline: deadline, lastTS: lastTS, rcvNxt: rcvNxt}
	ok, victim := s.tw.insert(s.table.ShardOf(k), e)
	if victim != nil {
		s.dropEvicted(victim)
	}
	if !ok {
		s.tw.freeEntry(e)
		return false
	}
	s.chargeTWInsert()
	s.noteMem()
	return true
}

// ReuseVerdict is the outcome of a SYN-time port-reuse attempt.
type ReuseVerdict int

const (
	// ReuseNone: no lingering entry for the four-tuple (nothing to
	// recycle; the connection proceeds as a normal open).
	ReuseNone ReuseVerdict = iota
	// ReuseGranted: the lingering incarnation was recycled; its demux
	// entry is gone and the four-tuple is free.
	ReuseGranted
	// ReuseRefused: a lingering entry exists but the admissibility check
	// failed (old-incarnation segments could still be in flight); the
	// caller must wait for the deadline reap or retry later.
	ReuseRefused
)

// ReuseTimeWait attempts SYN-time port reuse for a new connection whose
// four-tuple collides with a lingering TIME_WAIT entry (Linux
// tcp_tw_reuse). isn and tsVal are the new connection's initial sequence
// number and first timestamp; admissibility follows RFC 6191 (strictly
// newer timestamp, or sequence beyond the old incarnation's RCV.NXT —
// see tcp.ReuseAdmissible). On grant the entry is recycled and the old
// incarnation's demux entry removed, so the caller can register the new
// endpoint immediately. Refusals are counted: a production stack
// surfaces them as reconnect latency.
func (s *Stack) ReuseTimeWait(remoteIP, localIP ipv4.Addr, remotePort, localPort uint16, isn, tsVal uint32) ReuseVerdict {
	k := FlowKey{Src: remoteIP, Dst: localIP, SrcPort: remotePort, DstPort: localPort}
	shard := s.table.ShardOf(k)
	e := s.tw.lookup(shard, k)
	if e == nil {
		return ReuseNone
	}
	// Reading the lingering entry's final state is a cold touch either
	// way the verdict goes.
	s.meter.Charge(cycles.NonProto, s.params.Mem.RandomTouchCost(1))
	if !tcp.ReuseAdmissible(e.lastTS, tsVal, e.rcvNxt, isn) {
		s.tw.refused++
		return ReuseRefused
	}
	s.tw.recycle(shard, e)
	registered := s.table.Remove(k)
	s.chargeTWRemove(registered)
	return ReuseGranted
}

// TimeWaitHas reports whether the four-tuple lingers in TIME_WAIT
// (control-path check, no charge).
func (s *Stack) TimeWaitHas(remoteIP, localIP ipv4.Addr, remotePort, localPort uint16) bool {
	k := FlowKey{Src: remoteIP, Dst: localIP, SrcPort: remotePort, DstPort: localPort}
	return s.tw.lookup(s.table.ShardOf(k), k) != nil
}

// ReapTimeWait unregisters every TIME_WAIT flow whose deadline tick has
// elapsed at virtual time now, returning the reaped keys — including any
// flows pressure-evicted since the last sweep — so the caller releases
// any peer-side state keyed on them. The returned slice is valid until
// the next call. Teardown is receive-path work: each reap charges the
// wheel unlink, map delete and demux-table update like any other
// non-proto mutation — and nothing else, however many entries still
// linger.
func (s *Stack) ReapTimeWait(now uint64) []FlowKey {
	s.twReaped = append(s.twReaped[:0], s.twEvicted...)
	s.twEvicted = s.twEvicted[:0]
	s.tw.reap(now, func(e *twEntry) {
		registered := s.table.Remove(e.key)
		s.chargeTWRemove(registered)
		s.twReaped = append(s.twReaped, e.key)
	})
	return s.twReaped
}

// TimeWaitLen returns the number of flows lingering in TIME_WAIT.
func (s *Stack) TimeWaitLen() int { return s.tw.live }

// TimeWaitStats returns the TIME_WAIT table summary.
func (s *Stack) TimeWaitStats() TimeWaitStats { return s.tw.stats() }

// TimeWaitOccupancy returns the lingering-entry count per shard (a fresh
// slice; shard index matches the flow table's).
func (s *Stack) TimeWaitOccupancy() []int {
	occ := make([]int, s.tw.nShards)
	for i := range s.tw.shards {
		occ[i] = s.tw.shards[i].live
	}
	return occ
}
