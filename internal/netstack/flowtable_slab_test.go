package netstack

import (
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

// TestFlowSlotLayout pins the simulator's slot: 18 bytes with no pointer,
// while the priced footprint stays the modelled 32-byte slot.
func TestFlowSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(flowSlot{}); got != 18 {
		t.Errorf("flowSlot is %d bytes, want 18", got)
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
// allocates nothing in either layout. The handle the old endpoint frees
// is the one the new endpoint takes, so the slab does not grow.
func TestChurnAllocFree(t *testing.T) {
	const n = 64
	eps := make([]*tcp.Endpoint, n+1)
	for i := range eps {
		eps[i] = testEndpoint(t, uint16(5001+i), 44000)
	}
	for _, layout := range []FlowLayout{LayoutOpenAddressed, LayoutSeedMap} {
		tab, err := NewFlowTableLayout(8, layout)
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
				t.Fatalf("%v: Remove(key %d) missed", layout, i%n)
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
			t.Errorf("%v: Remove+Insert allocates %.1f times per call", layout, allocs)
		}
		if len(tab.eps) != n+1 {
			t.Errorf("%v: slab holds %d handles for %d endpoints", layout, len(tab.eps)-1, n)
		}
		for j := 0; j < n; j++ {
			if got := tab.Peek(diffKey(j)); got != eps[bound[j]] {
				t.Fatalf("%v: key %d resolves to %p, want %p", layout, j, got, eps[bound[j]])
			}
		}
	}
}

// checkSlab verifies the handle bookkeeping against the keys themselves:
// every live handle's count equals the keys naming it, no key names the
// nil handle, and the free list holds exactly the released handles, once.
func checkSlab(t *testing.T, what string, tab *FlowTable) {
	t.Helper()
	counts := make([]int, len(tab.eps))
	for si := range tab.shards {
		s := &tab.shards[si]
		for _, ref := range s.conns {
			counts[ref]++
		}
		for _, sl := range s.slots {
			if sl.dist != 0 {
				counts[sl.ref()]++
			}
		}
	}
	if counts[0] != 0 || tab.eps[0] != (epRef{}) {
		t.Fatalf("%s: handle 0 named by %d keys, holds %+v", what, counts[0], tab.eps[0])
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

// FuzzFlowTableOps drives both layouts with one byte-coded sequence of
// Insert, InsertBatch, Remove, Peek and LookupOn over a 24-key space and
// three endpoints, and checks both after every operation against a
// map[FlowKey]*tcp.Endpoint reference: verdicts, errors, resolutions,
// lengths, shard counters, and the handle slab (equal across layouts and
// consistent with the keys). It ends by removing every key, after which
// every handle must be back on the free list: churn cannot leak handles.
//
// Each operation takes three bytes: the opcode, a key index and an
// argument (the endpoint, or a batch's length and key stride).
func FuzzFlowTableOps(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 0, 1, 0, 2, 1, 0, 3, 1, 7})
	f.Add(uint8(3), []byte{1, 0, 0x31, 1, 4, 0x72, 2, 4, 0, 0, 4, 2})
	f.Fuzz(func(t *testing.T, shardBits uint8, ops []byte) {
		const space = 24
		eps := []*tcp.Endpoint{
			testEndpoint(t, 5001, 44000), testEndpoint(t, 5002, 44000), testEndpoint(t, 5003, 44000),
		}
		keys := make([]FlowKey, space)
		for i := range keys {
			keys[i] = diffKey(i)
		}
		shards := 1 << (shardBits % 4)
		var tabs [2]*FlowTable
		for l, layout := range []FlowLayout{LayoutOpenAddressed, LayoutSeedMap} {
			tab, err := NewFlowTableLayout(shards, layout)
			if err != nil {
				t.Fatal(err)
			}
			tab.SetQueues(2)
			tabs[l] = tab
		}
		ref := make(map[FlowKey]*tcp.Endpoint)

		check := func(what string) {
			t.Helper()
			for _, tab := range tabs {
				if tab.Len() != len(ref) {
					t.Fatalf("%s: %v Len %d, reference %d", what, tab.Layout(), tab.Len(), len(ref))
				}
				for i, k := range keys {
					if got := tab.Peek(k); got != ref[k] {
						t.Fatalf("%s: %v Peek(key %d) = %p, reference %p", what, tab.Layout(), i, got, ref[k])
					}
				}
				checkSlab(t, fmt.Sprintf("%s: %v", what, tab.Layout()), tab)
			}
			open, seed := tabs[0], tabs[1]
			if !reflect.DeepEqual(open.eps, seed.eps) || !reflect.DeepEqual(open.free, seed.free) || open.newest != seed.newest {
				t.Fatalf("%s: slabs differ:\nopen %v free %v newest %d\nmap  %v free %v newest %d", what,
					open.eps, open.free, open.newest, seed.eps, seed.free, seed.newest)
			}
			for s := 0; s < shards; s++ {
				if a, b := open.ShardStatsOf(s), seed.ShardStatsOf(s); a != b {
					t.Fatalf("%s: shard %d stats differ:\nopen %+v\nmap  %+v", what, s, a, b)
				}
			}
		}

		for o := 0; o+2 < len(ops); o += 3 {
			op, ki, arg := ops[o]%5, int(ops[o+1])%space, ops[o+2]
			k, ep := keys[ki], eps[int(arg)%len(eps)]
			what := fmt.Sprintf("op %d (%d key %d arg %#x)", o/3, op, ki, arg)
			switch op {
			case 0: // Insert
				_, dup := ref[k]
				for _, tab := range tabs {
					if err := tab.Insert(k, ep); (err != nil) != dup {
						t.Fatalf("%s: %v Insert err %v, reference dup %v", what, tab.Layout(), err, dup)
					}
				}
				if !dup {
					ref[k] = ep
				}
			case 1: // InsertBatch of arg&7 keys from ki with stride arg>>3
				n, stride := int(arg&7), int(arg>>3)
				keyOf := func(i int) FlowKey { return keys[(ki+i*stride)%space] }
				var want error
				for i := 0; i < n; i++ {
					if _, dup := ref[keyOf(i)]; dup {
						want = tabs[0].dupErr(keyOf(i))
						break
					}
					ref[keyOf(i)] = eps[0]
				}
				for _, tab := range tabs {
					if err := tab.InsertBatch(n, keyOf, eps[0]); fmt.Sprint(err) != fmt.Sprint(want) {
						t.Fatalf("%s: %v InsertBatch err %v, reference %v", what, tab.Layout(), err, want)
					}
				}
			case 2: // Remove
				_, present := ref[k]
				for _, tab := range tabs {
					if got := tab.Remove(k); got != present {
						t.Fatalf("%s: %v Remove = %v, reference %v", what, tab.Layout(), got, present)
					}
				}
				delete(ref, k)
			case 3: // Peek
				for _, tab := range tabs {
					if got := tab.Peek(k); got != ref[k] {
						t.Fatalf("%s: %v Peek = %p, reference %p", what, tab.Layout(), got, ref[k])
					}
				}
			case 4: // LookupOn, attributed to CPU arg&1
				for _, tab := range tabs {
					if got := tab.LookupOn(int(arg&1), k, 0, 1+int(arg>>4), arg&2 != 0); got != ref[k] {
						t.Fatalf("%s: %v LookupOn = %p, reference %p", what, tab.Layout(), got, ref[k])
					}
				}
			}
			check(what)
		}

		for _, k := range keys {
			_, present := ref[k]
			for _, tab := range tabs {
				if tab.Remove(k) != present {
					t.Fatalf("drain: %v Remove verdict differs from reference", tab.Layout())
				}
			}
			delete(ref, k)
		}
		check("drain")
		for _, tab := range tabs {
			if len(tab.free) != len(tab.eps)-1 {
				t.Fatalf("%v: %d of %d handles free after draining every key",
					tab.Layout(), len(tab.free), len(tab.eps)-1)
			}
		}
	})
}
