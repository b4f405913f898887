package netstack

import (
	"slices"
	"sort"

	"repro/internal/cycles"
	"repro/internal/ipv4"
)

// This file implements the TIME_WAIT subsystem: the table of torn-down
// flows whose demux entries linger for 2·MSL so retransmitted FINs still
// find an endpoint to ACK. Churn (sim's teardown tracker) is its one
// client.
//
// Per-packet work must not grow with connection-table population
// ("Algorithms and Data Structures to Accelerate Network Analysis",
// Ros-Giralt et al.), so the table is not a flat slice with an O(n)
// duplicate scan on every insert and a full-slice sweep on every reap.
// It is sharded by the same RSS bucket as the flow table (the one softirq
// CPU that owns a flow's demux shard also owns its TIME_WAIT entry), and
//
//   - one table-wide set of the lingering four-tuples gives O(1)
//     duplicate detection at insert, and
//   - each shard keeps its entries in one queue sorted by deadline, ties
//     in insertion order. Deadlines arrive in order — now + a fixed
//     linger — so an insert is almost always an append, and a reap sweep
//     consumes only each queue's due prefix: the first entry not yet due
//     ends the shard's work, however many entries linger behind it.
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

// twFirstEntries is a shard queue's first size. Reaps keep a queue's
// storage, so a shard allocates once unless its linger backlog ever
// outgrows it.
const twFirstEntries = 16

// twEntry is one TIME_WAIT entry: the lingering four-tuple and its reap
// deadline.
type twEntry struct {
	key      FlowKey
	deadline uint64
}

// TimeWaitStats summarizes the table.
type TimeWaitStats struct {
	// Entered counts insertions and Reaped deadline expiries. At all
	// times Entered = Reaped + Len.
	//
	// Reused, ReuseRefused and Evicted are always 0: the table never
	// recycles an entry at SYN time and never evicts one early. They
	// stay only because bench/rxperf reads them.
	Entered, Reaped, Reused, ReuseRefused uint64
	Evicted                               uint64
	// Len is the current number of lingering entries, Peak the run's
	// high-water mark, and Bytes/PeakBytes their modeled footprint
	// (TimeWaitEntryBytes each).
	Len, Peak        int
	Bytes, PeakBytes uint64
}

// timeWaitTable is the sharded TIME_WAIT table.
type timeWaitTable struct {
	// shards holds each shard's deadline-sorted queue. It is allocated,
	// with keys, on the first insert (nil until then: a run that
	// tears no flow down never touches it); nShards is its length.
	shards  [][]twEntry
	nShards int
	// keys holds every lingering key.
	keys map[FlowKey]struct{}

	peak int

	entered, reaped uint64
}

// insert adds e to its shard's queue after every entry with an equal or
// earlier deadline; the caller has checked for a duplicate. Deadlines
// arrive (near-)monotone, so this is almost always an append.
func (t *timeWaitTable) insert(shard int, e twEntry) {
	q := t.shards[shard]
	i := sort.Search(len(q), func(i int) bool { return q[i].deadline > e.deadline })
	if cap(q) == 0 {
		q = make([]twEntry, 0, twFirstEntries)
	}
	t.shards[shard] = slices.Insert(q, i, e)
	t.keys[e.key] = struct{}{}
	t.peak = max(t.peak, len(t.keys))
	t.entered++
}

// reap takes, shard by shard in index order, each queue's prefix whose
// deadline tick has elapsed at now, invoking each for every key in
// deadline order. The first entry not yet due ends a shard's work.
func (t *timeWaitTable) reap(now uint64, each func(FlowKey)) {
	nowTick := now / twTickNs
	for si, q := range t.shards {
		n := 0
		for n < len(q) && q[n].deadline/twTickNs < nowTick {
			delete(t.keys, q[n].key)
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
	n := len(t.keys)
	return TimeWaitStats{
		Entered:   t.entered,
		Reaped:    t.reaped,
		Len:       n,
		Peak:      t.peak,
		Bytes:     uint64(n) * TimeWaitEntryBytes,
		PeakBytes: uint64(t.peak) * TimeWaitEntryBytes,
	}
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

// chargeTWRemove prices taking one entry out at its deadline reap: the
// entry and its map bucket are cold by now (two dependent line misses),
// plus the demux-table mutation when the flow was still registered.
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
// simulation time). An admitted entry is charged and counted against the
// memory budget. It reports false when the flow is not registered or
// already waiting.
func (s *Stack) EnterTimeWait(remoteIP, localIP ipv4.Addr, remotePort, localPort uint16, deadline uint64) bool {
	k := FlowKey{Src: remoteIP, Dst: localIP, SrcPort: remotePort, DstPort: localPort}
	if s.table.Peek(k) == nil {
		return false
	}
	t := &s.tw
	if _, dup := t.keys[k]; dup {
		return false
	}
	if t.shards == nil {
		t.shards = make([][]twEntry, t.nShards)
		t.keys = make(map[FlowKey]struct{})
	}
	t.insert(s.table.ShardOf(k), twEntry{key: k, deadline: deadline})
	s.chargeTWInsert()
	s.noteMem()
	return true
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
