package netstack

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/tcp"
)

// hasPointers reports whether a value of type t holds any pointer the
// garbage collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return true
	}
	return false
}

// TestFlowSlotLayout pins the simulator's slot: 8 bytes, the key's
// remote half and the 16-bit handle, with no pointer, while the priced
// footprint stays the modelled 32-byte slot.
func TestFlowSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(flowSlot{}); got != 8 {
		t.Errorf("flowSlot is %d bytes, want 8", got)
	}
	if hasPointers(reflect.TypeFor[flowSlot]()) {
		t.Error("flowSlot holds a pointer")
	}
	if !hasPointers(reflect.TypeFor[epRef]()) {
		t.Error("hasPointers misses epRef's endpoint pointer")
	}
	if FlowSlotBytes != 32 {
		t.Errorf("FlowSlotBytes = %d, want the modelled 32", FlowSlotBytes)
	}
}

// TestChurnAllocFree: once a table has room, a connection's turnover —
// Remove of its key, then Insert of the same key for a fresh endpoint —
// allocates nothing. The handle the old endpoint frees is the one the new
// endpoint takes, so the slab does not grow.
func TestChurnAllocFree(t *testing.T) {
	const n = 64
	eps := make([]*tcp.Endpoint, n+1)
	for i := range eps {
		eps[i] = testEndpoint(t, uint16(5001+i), 44000)
	}
	tab, err := NewFlowTable(8)
	if err != nil {
		t.Fatal(err)
	}
	bound := make([]int, n) // key i's endpoint index; eps[spare] is unbound
	for i := range bound {
		if err := tab.Insert(diffKey(i), eps[i]); err != nil {
			t.Fatal(err)
		}
		bound[i] = i
	}
	spare, i := n, 0
	churn := func() {
		k := diffKey(i % n)
		if !tab.Remove(k) {
			t.Fatalf("Remove(key %d) missed", i%n)
		}
		if err := tab.Insert(k, eps[spare]); err != nil {
			t.Fatal(err)
		}
		bound[i%n], spare = spare, bound[i%n]
		i++
	}
	for w := 0; w < 2*n; w++ {
		churn()
	}
	if allocs := testing.AllocsPerRun(10*n, churn); allocs != 0 {
		t.Errorf("Remove+Insert allocates %.1f times per call", allocs)
	}
	if len(tab.eps) != n+1 {
		t.Errorf("slab holds %d handles for %d endpoints", len(tab.eps)-1, n)
	}
	for j := 0; j < n; j++ {
		if got := tab.Peek(diffKey(j)); got != eps[bound[j]] {
			t.Fatalf("key %d resolves to %p, want %p", j, got, eps[bound[j]])
		}
	}
}

// checkSlab verifies the handle bookkeeping against the keys themselves:
// every live handle's count equals the keys naming it, the nil handle
// (which marks an empty slot) stays empty, and the free list holds
// exactly the released handles, once.
func checkSlab(t *testing.T, what string, tab *FlowTable) {
	t.Helper()
	counts := make([]int, len(tab.eps))
	for si := range tab.shards {
		for _, sl := range tab.shards[si].slots {
			counts[sl.ref]++
		}
	}
	if tab.eps[0] != (epRef{}) {
		t.Fatalf("%s: handle 0 holds %+v", what, tab.eps[0])
	}
	onFree := make([]bool, len(tab.eps))
	for _, h := range tab.free {
		if h == 0 || int(h) >= len(tab.eps) || onFree[h] {
			t.Fatalf("%s: bad or repeated free handle %d (slab %d)", what, h, len(tab.eps))
		}
		onFree[h] = true
	}
	for h := 1; h < len(tab.eps); h++ {
		e := tab.eps[h]
		if e.refs != counts[h] {
			t.Fatalf("%s: handle %d counts %d refs, %d keys name it", what, h, e.refs, counts[h])
		}
		if onFree[h] != (e.refs == 0) || (e.refs == 0) != (e.ep == nil) {
			t.Fatalf("%s: handle %d refs=%d ep=%p free=%v", what, h, e.refs, e.ep, onFree[h])
		}
	}
}

// FuzzFlowTableOps drives a table with one byte-coded sequence of
// Insert, InsertBatch, Remove, Peek and LookupOn over a 32-key space and
// three endpoints, and checks it after every operation against the
// plain-map oracle (refTable): verdicts, errors, resolutions, length,
// shard occupancy and counters, the handle slab's consistency with the
// keys, and the slot invariants with TableStats against a slot scan
// (checkOpenInvariants). It ends by removing every key, after which every
// handle must be back on the free list: churn cannot leak handles.
//
// The key space has two local halves: keys 24 to 31 are keys 0 to 7's
// remote halves under twinKey's local half, so each shares its home slot
// with its twin.
//
// Each operation takes three bytes: the opcode, a key index and an
// argument (the endpoint, or a batch's length and key stride).
func FuzzFlowTableOps(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 0, 1, 0, 2, 1, 0, 3, 1, 7})
	f.Add(uint8(3), []byte{1, 0, 0x31, 1, 4, 0x72, 2, 4, 0, 0, 4, 2})
	// Twins: batches across both local halves, removes of either twin.
	f.Add(uint8(1), []byte{1, 20, 0x27, 0, 2, 1, 2, 26, 0, 4, 2, 0x11, 1, 26, 0xc3, 2, 2, 0, 3, 26, 0})
	f.Fuzz(flowTableOps)
}

// flowTableOps is FuzzFlowTableOps' body: it runs one operation sequence
// against a fresh table and the reference.
func flowTableOps(t *testing.T, shardBits uint8, ops []byte) {
	const space, twins = 32, 8
	eps := []*tcp.Endpoint{
		testEndpoint(t, 5001, 44000), testEndpoint(t, 5002, 44000), testEndpoint(t, 5003, 44000),
	}
	keys := make([]FlowKey, space)
	for i := range keys {
		if i < space-twins {
			keys[i] = diffKey(i)
		} else {
			keys[i] = twinKey(i - (space - twins))
		}
	}
	shards := 1 << (shardBits % 4)
	tab, err := NewFlowTable(shards)
	if err != nil {
		t.Fatal(err)
	}
	tab.SetOwnerQueues(2)
	ref := newRefTable(shards, 2)

	check := func(what string) {
		t.Helper()
		ref.check(t, what, tab, keys)
		checkSlab(t, what, tab)
		checkOpenInvariants(t, tab)
	}

	for o := 0; o+2 < len(ops); o += 3 {
		op, ki, arg := ops[o]%5, int(ops[o+1])%space, ops[o+2]
		k, ep := keys[ki], eps[int(arg)%len(eps)]
		what := fmt.Sprintf("op %d (%d key %d arg %#x)", o/3, op, ki, arg)
		switch op {
		case 0: // Insert
			err := tab.Insert(k, ep)
			if dup := ref.insert(k, ep); (err != nil) != dup {
				t.Fatalf("%s: Insert err %v, reference dup %v", what, err, dup)
			}
		case 1: // InsertBatch of arg&7 keys from ki with stride arg>>3
			n, stride := int(arg&7), int(arg>>3)
			keyOf := func(i int) FlowKey { return keys[(ki+i*stride)%space] }
			var want error
			for i := 0; i < n; i++ {
				if ref.insert(keyOf(i), eps[0]) {
					want = tab.dupErr(keyOf(i))
					break
				}
			}
			if err := tab.InsertBatch(n, keyOf, eps[0]); fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("%s: InsertBatch err %v, reference %v", what, err, want)
			}
		case 2: // Remove
			if got, want := tab.Remove(k), ref.remove(k); got != want {
				t.Fatalf("%s: Remove = %v, reference %v", what, got, want)
			}
		case 3: // Peek
			if got := tab.Peek(k); got != ref.eps[k] {
				t.Fatalf("%s: Peek = %p, reference %p", what, got, ref.eps[k])
			}
		case 4: // LookupOn, attributed to CPU arg&1
			np, agg := 1+int(arg>>4), arg&2 != 0
			if got, want := tab.LookupOn(int(arg&1), k, 0, np, agg), ref.lookupOn(int(arg&1), k, np, agg); got != want {
				t.Fatalf("%s: LookupOn = %p, reference %p", what, got, want)
			}
		}
		check(what)
	}

	for _, k := range keys {
		if tab.Remove(k) != ref.remove(k) {
			t.Fatal("drain: Remove verdict differs from reference")
		}
	}
	check("drain")
	if len(tab.free) != len(tab.eps)-1 {
		t.Fatalf("%d of %d handles free after draining every key", len(tab.free), len(tab.eps)-1)
	}
}

// TestEndpointHandleLimit: a table binds at most MaxEndpoints distinct
// endpoints. With all of them bound, an Insert or an InsertBatch that
// needs one more fails with ErrTooManyEndpoints and leaves the table, the
// meter and the demux cycles as they were; a duplicate key still reports
// as a duplicate. The endpoint bound last can still take keys, and once a
// key's removal frees a handle, the next endpoint takes it.
func TestEndpointHandleLimit(t *testing.T) {
	eps := make([]tcp.Endpoint, MaxEndpoints+1) // only their addresses matter
	ref, tab, mr, mt := pricedPair(t, 0, 64)
	for i := 0; i < MaxEndpoints; i++ {
		for _, tb := range []*FlowTable{ref, tab} {
			if err := tb.Insert(diffKey(i), &eps[i]); err != nil {
				t.Fatalf("endpoint %d: %v", i, err)
			}
		}
	}
	extra := &eps[MaxEndpoints]
	more := func(i int) FlowKey { return diffKey(MaxEndpoints + i) }
	if err := tab.Insert(more(0), extra); !errors.Is(err, ErrTooManyEndpoints) {
		t.Fatalf("Insert past the limit: err = %v, want ErrTooManyEndpoints", err)
	}
	if err := tab.InsertBatch(3, more, extra); !errors.Is(err, ErrTooManyEndpoints) {
		t.Fatalf("InsertBatch past the limit: err = %v, want ErrTooManyEndpoints", err)
	}
	if err := tab.InsertBatch(3, diffKey, extra); err == nil || errors.Is(err, ErrTooManyEndpoints) {
		t.Fatalf("InsertBatch of a resident key past the limit: err = %v, want a duplicate", err)
	}
	// The bound is on handles: an endpoint already bound, but not the
	// newest, takes a new handle for a new key, and is refused too.
	if err := tab.Insert(more(0), &eps[0]); !errors.Is(err, ErrTooManyEndpoints) {
		t.Fatalf("Insert for an older bound endpoint past the limit: err = %v, want ErrTooManyEndpoints", err)
	}
	requireTablesEqual(t, "refused inserts", ref, tab, mr, mt)
	checkSlab(t, "refused inserts", tab)
	checkOpenInvariants(t, tab)

	last := &eps[MaxEndpoints-1]
	for _, tb := range []*FlowTable{ref, tab} {
		if err := tb.InsertBatch(2, more, last); err != nil {
			t.Fatalf("keys for the newest endpoint: %v", err)
		}
		if !tb.Remove(diffKey(7)) {
			t.Fatal("Remove(key 7) missed")
		}
		if err := tb.Insert(more(2), extra); err != nil {
			t.Fatalf("Insert after a handle was freed: %v", err)
		}
	}
	requireTablesEqual(t, "after reuse", ref, tab, mr, mt)
	checkSlab(t, "after reuse", tab)
	if len(tab.eps) != MaxEndpoints+1 || tab.Peek(more(2)) != extra {
		t.Fatalf("slab holds %d handles, key resolves to %p, want %d and %p",
			len(tab.eps)-1, tab.Peek(more(2)), MaxEndpoints, extra)
	}
}
