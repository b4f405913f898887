package buf

import (
	"slices"
	"testing"
)

// FuzzStore drives one Store through random first takes, growths and
// resets of several owners' containers, and checks each container against
// a plain slice (storeOps).
func FuzzStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0x00, 0x01, 0x10, 0x02, 0x20, 0x03, 0x30, 0x04}) // a reservation of 3, three owners' first appends
	f.Add(append([]byte{0}, make([]byte, 64)...))                    // no reservation: one owner grows page by page
	f.Fuzz(storeOps)
}

// storeOwners is how many containers storeOps keeps on its one store.
const storeOwners = 5

// storeOps reads ops[0] as the store's reservation (0 to 7 owners) and
// the rest as two-byte operations on owner op[0]%storeOwners, choosing by
// op[0]/storeOwners%4:
//
//	0: append the next value through Room, with a first size of
//	   1 + op[1]%8;
//	1: append the next value with Go's append, as an owner without a
//	   store would (it must not write past a carved array's end);
//	2: Grow to op[1]%32 more than the container's length;
//	3: empty the container, keeping its array, as Reset does; when
//	   op[1] is odd, the owner drops the array instead, as a retired
//	   record would.
//
// After every operation each owner must hold exactly its model slice's
// values (every value appended is distinct, so another owner's write to a
// shared array shows), and every array Take or Grow hands out must read
// as zero past the elements it was given: carved or recycled, it holds
// nothing of an earlier owner.
func storeOps(t *testing.T, ops []byte) {
	var st Store[uint64]
	if len(ops) > 0 {
		st.Reserve(int(ops[0] % 8))
		ops = ops[1:]
	}
	var owners, models [storeOwners][]uint64
	next := uint64(1)
	zeroPast := func(op int, a []uint64, from int) {
		for j, v := range a[from:cap(a)] {
			if v != 0 {
				t.Fatalf("op %d: array handed out holds %d at %d", op, v, from+j)
			}
		}
	}
	for op := 0; op+1 < len(ops); op += 2 {
		o, arg := int(ops[op])%storeOwners, int(ops[op+1])
		switch int(ops[op]) / storeOwners % 4 {
		case 0:
			first := 1 + arg%8
			s := owners[o]
			if len(s) == cap(s) {
				s = st.Room(s, first)
				if cap(owners[o]) == 0 && cap(s) != first {
					t.Fatalf("op %d: first array has cap %d, want %d", op, cap(s), first)
				}
				zeroPast(op, s, len(s))
			}
			owners[o] = append(s, next)
			models[o] = append(models[o], next)
			next++
		case 1:
			owners[o] = append(owners[o], next)
			models[o] = append(models[o], next)
			next++
		case 2:
			need := len(owners[o]) + arg%32
			s := st.Grow(owners[o], need)
			if cap(s) < need || cap(s) < 2*cap(owners[o]) {
				t.Fatalf("op %d: Grow(len %d cap %d, %d) has cap %d", op, len(owners[o]), cap(owners[o]), need, cap(s))
			}
			zeroPast(op, s, len(s))
			owners[o] = s
		case 3:
			if arg&1 == 1 {
				owners[o] = nil
			} else {
				owners[o] = owners[o][:0]
			}
			models[o] = models[o][:0]
		}
		for i := range owners {
			if !slices.Equal(owners[i], models[i]) {
				t.Fatalf("op %d: owner %d holds %v, want %v", op, i, owners[i], models[i])
			}
		}
	}
}

// TestStoreCarvesReservation: n containers' first arrays cost one
// allocation when the store owes n, a kind nobody takes costs none, and a
// container that outgrows its first array passes it on, cleared, to the
// next taker of its capacity.
func TestStoreCarvesReservation(t *testing.T) {
	for _, n := range []int{1, 20, 200} {
		allocs := testing.AllocsPerRun(1, func() {
			var st Store[uint64]
			st.Reserve(n)
			for i := 0; i < n; i++ {
				if c := st.Take(8); cap(c) != 8 || len(c) != 0 {
					t.Fatalf("Take(8) = len %d cap %d", len(c), cap(c))
				}
			}
		})
		if allocs != 1 {
			t.Errorf("%d reserved first arrays cost %.0f allocations, want 1", n, allocs)
		}
	}
	var unused Store[uint64]
	unused.Reserve(100)
	if unused.page != nil {
		t.Error("Reserve allocated a page")
	}

	var st Store[uint64]
	a := append(st.Take(2), 1, 2)
	grown := st.Grow(a, 3)
	if !slices.Equal(grown, []uint64{1, 2}) || cap(grown) != 4 {
		t.Fatalf("Grow = %v cap %d, want [1 2] cap 4", grown, cap(grown))
	}
	b := st.Take(2)[:2]
	if &b[0] != &a[0] {
		t.Error("the next Take of the outgrown capacity did not get the outgrown array")
	}
	if !slices.Equal(b, []uint64{0, 0}) {
		t.Errorf("the outgrown array reads %v, want it cleared", b)
	}
}

// TestStoreSpillPages: past its reservation a store's pages hold one
// array, then as many as it has carved, up to spillArrays, so its
// allocations grow with the logarithm of the arrays it hands out.
func TestStoreSpillPages(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		var st Store[uint64]
		for i := 0; i < 16; i++ {
			st.Take(4)
		}
	})
	// Pages of 1, 1, 2, 4 and 8 arrays.
	if allocs != 5 {
		t.Errorf("16 spilled arrays cost %.0f allocations, want 5", allocs)
	}
	var nilStore *Store[uint64]
	if c := nilStore.Take(3); cap(c) != 3 {
		t.Errorf("nil store Take(3) has cap %d", cap(c))
	}
	if g := nilStore.Grow([]uint64{7}, 5); !slices.Equal(g, []uint64{7}) || cap(g) < 5 {
		t.Errorf("nil store Grow = %v cap %d", g, cap(g))
	}
}
