package netstack

import (
	"slices"
	"sort"

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
// hundreds of thousands of entries lingering at once, so a flat slice —
// an O(n) duplicate scan on every insert and a full-slice sweep on every
// reap — would melt exactly the receive path the paper's argument (and
// this repo's sharding) protects: per-packet work must not grow with
// connection-table population ("Algorithms and Data Structures to
// Accelerate Network Analysis", Ros-Giralt et al.). Instead the table is
// sharded by the same RSS bucket as the flow table (the one softirq CPU
// that owns a flow's demux shard also owns its TIME_WAIT entry), and
//
//   - one table-wide map from four-tuple to deadline gives O(1) duplicate
//     detection at insert and O(1) collision detection at SYN time, and
//   - each shard keeps its entries in one queue sorted by deadline, ties
//     in insertion order. Deadlines arrive in order — now + a fixed
//     linger, or a seeded spread monotone in its index — so an insert is
//     almost always an append, and a reap sweep consumes only each
//     queue's due prefix: the first entry not yet due ends the shard's
//     work, however many entries linger behind it.
//
// Cycle charges scale with the real touches (entry init, queue and map
// update, demux removal), priced through the machine's memory model like
// every other per-packet cost.

// twTickNs is the reap granularity: an entry is reclaimed on the first
// sweep after its deadline's 1 ms tick has fully elapsed (TIME_WAIT
// expiry needs no better precision).
const twTickNs = 1_000_000

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
}

// TimeWaitStats summarizes the table.
type TimeWaitStats struct {
	// Entered counts insertions (real teardowns and seeded backlog);
	// Reaped counts deadline expiries; Reused counts entries recycled by
	// SYN-time port reuse; ReuseRefused counts reconnects the
	// admissibility check turned away. PressureRefused counts the
	// insertions turned away at the tcp_max_tw_buckets cap (the flow skips
	// TIME_WAIT entirely, Linux's "time wait bucket table overflow").
	// Evicted is always 0: the table refuses at the cap and never evicts
	// early. It stays because bench/rxperf's accounting check reads it.
	// At all times Entered = Reaped + Reused + Evicted + Len.
	Entered, Reaped, Reused, ReuseRefused uint64
	Evicted, PressureRefused              uint64
	// Len is the current number of lingering entries, Peak the run's
	// high-water mark, and Bytes/PeakBytes their modeled footprint
	// (TimeWaitEntryBytes each).
	Len, Peak        int
	Bytes, PeakBytes uint64
}

// timeWaitTable is the sharded TIME_WAIT table.
type timeWaitTable struct {
	// shards holds each shard's deadline-sorted queue. It is allocated,
	// with deadlines, on the first insert (nil until then: a run that
	// tears no flow down never touches it); nShards is its length.
	shards  [][]twEntry
	nShards int
	// deadlines maps every lingering key to its deadline, which locates
	// the entry in its shard's queue.
	deadlines map[FlowKey]uint64

	peak int

	// maxPerShard caps each shard's entries (0 = unlimited), the
	// per-shard share of tcp_max_tw_buckets. Over the cap an insertion is
	// refused (Linux's default: the closing flow skips TIME_WAIT
	// entirely).
	maxPerShard int

	entered, reaped, reused, refused, pressureRefused uint64
}

// configure sets the table-wide entry cap (tcp_max_tw_buckets; 0 =
// unlimited), split evenly across shards like the kernel's per-hash-chain
// pressure.
func (t *timeWaitTable) configure(maxBuckets int) {
	t.maxPerShard = 0
	if maxBuckets > 0 {
		t.maxPerShard = (maxBuckets + t.nShards - 1) / t.nShards
	}
}

// insert adds e to its shard's queue after every entry with an equal or
// earlier deadline; the caller has checked for a duplicate and for room.
// Deadlines arrive (near-)monotone, so this is almost always an append.
func (t *timeWaitTable) insert(shard int, e twEntry) {
	q := t.shards[shard]
	i := sort.Search(len(q), func(i int) bool { return q[i].deadline > e.deadline })
	t.shards[shard] = slices.Insert(q, i, e)
	t.deadlines[e.key] = e.deadline
	t.peak = max(t.peak, len(t.deadlines))
	t.entered++
}

// find returns the index of k's entry in its shard's queue, or -1: a
// binary search to the first entry with k's deadline, then a step over
// its ties.
func (t *timeWaitTable) find(shard int, k FlowKey) int {
	d, ok := t.deadlines[k]
	if !ok {
		return -1
	}
	q := t.shards[shard]
	i := sort.Search(len(q), func(i int) bool { return q[i].deadline >= d })
	for q[i].key != k {
		i++
	}
	return i
}

// remove takes entry i out of its shard's queue (SYN-time reuse).
func (t *timeWaitTable) remove(shard, i int) {
	q := t.shards[shard]
	delete(t.deadlines, q[i].key)
	t.shards[shard] = slices.Delete(q, i, i+1)
}

// reap takes, shard by shard in index order, each queue's prefix whose
// deadline tick has elapsed at now, invoking each for every key in
// deadline order. The first entry not yet due ends a shard's work.
func (t *timeWaitTable) reap(now uint64, each func(FlowKey)) {
	nowTick := now / twTickNs
	for si, q := range t.shards {
		n := 0
		for n < len(q) && q[n].deadline/twTickNs < nowTick {
			delete(t.deadlines, q[n].key)
			each(q[n].key)
			n++
		}
		if n > 0 {
			t.reaped += uint64(n)
			t.shards[si] = slices.Delete(q, 0, n)
		}
	}
}

// stats assembles the aggregate summary.
func (t *timeWaitTable) stats() TimeWaitStats {
	n := len(t.deadlines)
	return TimeWaitStats{
		Entered:         t.entered,
		Reaped:          t.reaped,
		Reused:          t.reused,
		ReuseRefused:    t.refused,
		PressureRefused: t.pressureRefused,
		Len:             n,
		Peak:            t.peak,
		Bytes:           uint64(n) * TimeWaitEntryBytes,
		PeakBytes:       uint64(t.peak) * TimeWaitEntryBytes,
	}
}

// ConfigureTimeWait sets tcp_max_tw_buckets for the stack: at most
// maxBuckets flows may linger in TIME_WAIT (0 = unlimited), the cap split
// evenly across shards. Over the cap the new entry is refused, and the
// closing flow skips TIME_WAIT entirely (the kernel's default, logged as
// "time wait bucket table overflow").
func (s *Stack) ConfigureTimeWait(maxBuckets int) {
	s.tw.configure(maxBuckets)
}

// chargeTWInsert prices one entry insertion: the entry init streams
// through the store buffer; placing it in the shard queue and the map
// chases two cold lines.
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

// insertTimeWait admits one entry into k's shard, refusing a lingering
// duplicate or a full shard. An admitted entry is charged and counted
// against the memory budget. It reports whether the entry was admitted.
func (s *Stack) insertTimeWait(k FlowKey, deadline uint64, lastTS, rcvNxt uint32) bool {
	t := &s.tw
	if _, dup := t.deadlines[k]; dup {
		return false
	}
	if t.shards == nil {
		t.shards = make([][]twEntry, t.nShards)
		t.deadlines = make(map[FlowKey]uint64)
	}
	shard := s.table.ShardOf(k)
	if t.maxPerShard > 0 && len(t.shards[shard]) >= t.maxPerShard {
		t.pressureRefused++
		return false
	}
	t.insert(shard, twEntry{key: k, deadline: deadline, lastTS: lastTS, rcvNxt: rcvNxt})
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
	i := s.tw.find(shard, k)
	if i < 0 {
		return ReuseNone
	}
	// Reading the lingering entry's final state is a cold touch either
	// way the verdict goes.
	s.meter.Charge(cycles.NonProto, s.params.Mem.RandomTouchCost(1))
	if e := &s.tw.shards[shard][i]; !tcp.ReuseAdmissible(e.lastTS, tsVal, e.rcvNxt, isn) {
		s.tw.refused++
		return ReuseRefused
	}
	s.tw.remove(shard, i)
	s.tw.reused++
	registered := s.table.Remove(k)
	s.chargeTWRemove(registered)
	return ReuseGranted
}

// ReapTimeWait unregisters every TIME_WAIT flow whose deadline tick has
// elapsed at virtual time now, returning the reaped keys so the caller
// releases any peer-side state keyed on them. The returned slice is valid until
// the next call. Teardown is receive-path work: each reap charges the
// queue pop, map delete and demux-table update like any other non-proto
// mutation — and nothing else, however many entries still linger.
func (s *Stack) ReapTimeWait(now uint64) []FlowKey {
	s.twReaped = s.twReaped[:0]
	s.tw.reap(now, func(k FlowKey) {
		registered := s.table.Remove(k)
		s.chargeTWRemove(registered)
		s.twReaped = append(s.twReaped, k)
	})
	return s.twReaped
}

// TimeWaitStats returns the TIME_WAIT table summary.
func (s *Stack) TimeWaitStats() TimeWaitStats { return s.tw.stats() }
