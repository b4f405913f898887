package netstack

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/rss"
	"repro/internal/tcp"
)

// twRefEntry is one lingering entry of the reference table.
type twRefEntry struct {
	key      FlowKey
	shard    int
	deadline uint64
}

// twRef is the brute-force TIME_WAIT table FuzzTimeWait holds a Stack
// to: a plain slice of the lingering entries in insertion order, scanned
// in full by every lookup and reap, plus the demux registrations the
// reap removes.
type twRef struct {
	shards     int
	lingering  []twRefEntry
	registered map[FlowKey]*tcp.Endpoint
	st         TimeWaitStats
}

func (r *twRef) find(k FlowKey) int {
	for i, e := range r.lingering {
		if e.key == k {
			return i
		}
	}
	return -1
}

// enter is EnterTimeWait's definition: only a registered flow that does
// not linger already enters.
func (r *twRef) enter(k FlowKey, deadline uint64) bool {
	if r.registered[k] == nil || r.find(k) >= 0 {
		return false
	}
	r.lingering = append(r.lingering, twRefEntry{key: k, shard: rss.ShardOf(k.Hash(), r.shards), deadline: deadline})
	r.st.Entered++
	r.st.Peak = max(r.st.Peak, len(r.lingering))
	return true
}

// reap returns, shard by shard, every entry whose deadline tick lies
// below now's, in deadline order with insertion-order ties, and
// unregisters each.
func (r *twRef) reap(now uint64) []FlowKey {
	var got []FlowKey
	for shard := 0; shard < r.shards; shard++ {
		for {
			due := -1
			for i, e := range r.lingering {
				if e.shard == shard && e.deadline/twTickNs < now/twTickNs &&
					(due < 0 || e.deadline < r.lingering[due].deadline) {
					due = i
				}
			}
			if due < 0 {
				break
			}
			k := r.lingering[due].key
			r.lingering = append(r.lingering[:due], r.lingering[due+1:]...)
			delete(r.registered, k)
			got = append(got, k)
			r.st.Reaped++
		}
	}
	return got
}

func (r *twRef) stats() TimeWaitStats {
	st := r.st
	st.Len = len(r.lingering)
	st.Bytes = uint64(st.Len) * TimeWaitEntryBytes
	st.PeakBytes = uint64(st.Peak) * TimeWaitEntryBytes
	return st
}

func (r *twRef) occupancy() []int {
	occ := make([]int, r.shards)
	for _, e := range r.lingering {
		occ[e.shard]++
	}
	return occ
}

// FuzzTimeWait drives a Stack's TIME_WAIT table with one byte-coded
// sequence of EnterTimeWait, ReapTimeWait and Register over a 16-key
// space, and checks it after every operation against the brute-force
// reference (twRef): verdicts, reaped key sequences, stats (Reused,
// ReuseRefused and Evicted stay 0), the Entered = Reaped + Len balance,
// per-shard occupancy, and which keys linger and stay registered. It ends
// by reaping until the table is empty.
//
// Time follows the stream runs' regime: a deadline never lies before the
// last reap, and consecutive reaps are less than 31 ms apart (the timer
// sweep's period is 5 ms).
//
// Each operation takes three bytes: the opcode (mod 3), a key index and
// an argument (a deadline or reap offset, or an endpoint).
func FuzzTimeWait(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 20, 0, 1, 25, 1, 0, 80, 1, 0, 100})
	f.Add(uint8(2), []byte{0, 3, 0x35, 0, 7, 0x21, 0, 2, 9, 0, 5, 9, 2, 13, 1, 0, 13, 9, 0, 5, 9, 1, 0, 250, 1, 0, 250})
	f.Add(uint8(1), []byte{0, 1, 40, 0, 4, 10, 0, 9, 10, 1, 0, 30, 0, 9, 3, 2, 9, 1, 0, 9, 3, 0, 14, 5, 1, 0, 200})
	f.Fuzz(timeWaitOps)
}

// timeWaitOps is FuzzTimeWait's body: it runs one operation sequence
// against a fresh stack and the reference.
func timeWaitOps(t *testing.T, shardBits uint8, ops []byte) {
	const space, registered = 16, 12
	var m cycles.Meter
	params := cost.NativeUP()
	alloc := buf.NewAllocator(&m, &params)
	shards := 1 << (shardBits % 4)
	st, err := NewSharded(&m, &params, alloc, shards)
	if err != nil {
		t.Fatal(err)
	}
	eps := []*tcp.Endpoint{
		testEndpoint(t, 5001, 44000), testEndpoint(t, 5002, 44000), testEndpoint(t, 5003, 44000),
	}
	keys := make([]FlowKey, space)
	ref := &twRef{shards: shards, registered: make(map[FlowKey]*tcp.Endpoint)}
	register := func(k FlowKey, ep *tcp.Endpoint) {
		if err := st.Register(ep, k.Src, k.Dst, k.SrcPort, k.DstPort); err != nil {
			t.Fatal(err)
		}
		ref.registered[k] = ep
	}
	for i := range keys {
		keys[i] = diffKey(i)
		if i < registered {
			register(keys[i], eps[i%len(eps)])
		}
	}

	var lastReap uint64
	reap := func(what string, now uint64) {
		t.Helper()
		got, want := st.ReapTimeWait(now), ref.reap(now)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: ReapTimeWait(%d) = %v, reference %v", what, now, got, want)
		}
		lastReap = now
	}
	check := func(what string) {
		t.Helper()
		got, want := st.TimeWaitStats(), ref.stats()
		if got != want {
			t.Fatalf("%s: stats %+v, reference %+v", what, got, want)
		}
		if got.Entered != got.Reaped+uint64(got.Len) {
			t.Fatalf("%s: accounting broken: %+v", what, got)
		}
		if occ, want := st.TimeWaitOccupancy(), ref.occupancy(); !reflect.DeepEqual(occ, want) {
			t.Fatalf("%s: occupancy %v, reference %v", what, occ, want)
		}
		for _, k := range keys {
			if got, want := st.TimeWaitHas(k.Src, k.Dst, k.SrcPort, k.DstPort), ref.find(k) >= 0; got != want {
				t.Fatalf("%s: TimeWaitHas(%v) = %v, reference %v", what, k, got, want)
			}
			if got, want := st.FlowTable().Peek(k), ref.registered[k]; got != want {
				t.Fatalf("%s: Peek(%v) = %p, reference %p", what, k, got, want)
			}
		}
	}

	for o := 0; o+2 < len(ops); o += 3 {
		op, k, arg := ops[o]%3, keys[int(ops[o+1])%space], ops[o+2]
		what := fmt.Sprintf("op %d (%d key %d arg %#x)", o/3, op, ops[o+1]%space, arg)
		switch op {
		case 0: // EnterTimeWait, up to 102 ms past the last reap
			deadline := lastReap + uint64(arg)*400_000
			if got, want := st.EnterTimeWait(k.Src, k.Dst, k.SrcPort, k.DstPort, deadline), ref.enter(k, deadline); got != want {
				t.Fatalf("%s: EnterTimeWait = %v, reference %v", what, got, want)
			}
		case 1: // ReapTimeWait up to 30.9 ms after the last one
			reap(what, lastReap+uint64(arg)*121_000)
		case 2: // Register a key no endpoint is bound under
			if ref.registered[k] == nil {
				register(k, eps[int(arg)%len(eps)])
			}
		}
		check(what)
	}

	for i := 0; len(ref.lingering) > 0; i++ {
		if i == 5 {
			t.Fatalf("drain: %d entries still lingering", len(ref.lingering))
		}
		reap("drain", lastReap+30_000_000)
		check("drain")
	}
}
