package buf

import "unsafe"

// Store is one machine's storage for one kind of per-connection or
// per-flow container: the retransmission list of its endpoints, say, or
// the resequencing window of its aggregation records (ARCHITECTURE.md,
// "Connection records"). Linux carves sk_buffs from slabs for the same
// reason: a population of connections should not pay one allocation per
// connection per container.
//
//   - Take hands a container its first array, carved from the store's
//     current page. The first Take allocates the page, sized for every
//     first array the machine's reservation (Reserve) still owes, so a kind
//     no connection ever uses costs nothing. Past the reservation, pages
//     grow from one array to a few.
//   - Grow hands a container that outgrew its array a recycled array of
//     the capacity it needs, or a new one, and takes the outgrown array
//     back, cleared, as the store's spare for the next connection that
//     needs its capacity. Take looks there first too.
//
// Every carved array ends at its own last element (a full slice
// expression), so an append past it reallocates instead of writing into
// its neighbour. Like the frame pool, a Store is host bookkeeping: it
// charges no cycles, and no simulated value depends on which array a
// container gets. It has no locking; a run is one goroutine.
//
// A nil *Store carves and recycles nothing: Take and Grow allocate each
// array as make and append would. An endpoint outside any machine gets
// that.
type Store[T any] struct {
	page []T // the uncarved rest of the current page
	// spare is the last outgrown array, cleared, waiting for a taker of
	// its capacity; a newer one takes its place.
	spare []T
	owed  int32 // first arrays the reservation owes, not yet taken
	spill int32 // first arrays carved past the reservation
}

// A page past the reservation holds as many first arrays as the store has
// carved past it so far (one at first, then doubling), but at most
// spillArrays and at most spillPageBytes' worth, and never less than one
// array. That serves connections opened beyond the reserved population,
// and records whose count follows the traffic rather than the
// connections, such as SKBs: a machine that needs one record pays for
// one, and a page wastes at most what its store already uses. The byte
// bound keeps large arrays, such as an aggregate's 19 fragments (1 KiB),
// to a few a page; measured on the benchmark shapes, 4 KiB saved more
// allocations than 2 KiB for the same bytes, and 8 KiB cost more bytes.
const (
	spillArrays    = 8
	spillPageBytes = 4096
)

// Reserve adds n to the first arrays the store owes: the machine is about
// to open n connections, each of which may take one. It allocates
// nothing.
func (s *Store[T]) Reserve(n int) { s.owed += int32(n) }

// Take returns an empty container of capacity n: the spare array when it
// has that capacity, else one carved from the store's page.
func (s *Store[T]) Take(n int) []T {
	if s == nil {
		return make([]T, 0, n)
	}
	if a := s.recycled(n); a != nil {
		return a
	}
	if len(s.page) < n {
		arrays := int(s.owed)
		if arrays == 0 {
			var zero T
			arrays = max(1, min(int(s.spill), spillArrays, spillPageBytes/max(1, n*int(unsafe.Sizeof(zero)))))
		}
		s.page = make([]T, arrays*n)
	}
	a := s.page[:0:n]
	s.page = s.page[n:]
	if s.owed > 0 {
		s.owed--
	} else {
		s.spill++
	}
	return a
}

// Record returns a zero T carved like a one-element Take: the storage of
// records that a machine recycles by itself, such as SKBs.
func (s *Store[T]) Record() *T {
	return &s.Take(1)[:1][0]
}

// Grow returns a container holding a's elements with room for at least
// need (and for twice a's capacity), and recycles a's array.
func (s *Store[T]) Grow(a []T, need int) []T {
	n := max(need, 2*cap(a))
	if s == nil {
		return append(make([]T, 0, n), a...)
	}
	b := s.recycled(n)
	if b == nil {
		b = make([]T, 0, n)
	}
	b = append(b, a...)
	s.recycle(a)
	return b
}

// Room returns a with room for one more element: a itself while it has
// room, else a's first array, of capacity first, or a larger one.
func (s *Store[T]) Room(a []T, first int) []T {
	switch {
	case len(a) < cap(a):
		return a
	case cap(a) == 0:
		return s.Take(first)
	default:
		return s.Grow(a, len(a)+1)
	}
}

// recycled takes the spare array if its capacity is n, or returns nil.
func (s *Store[T]) recycled(n int) []T {
	if cap(s.spare) != n {
		return nil
	}
	a := s.spare
	s.spare = nil
	return a
}

// recycle clears a's array and keeps it as the spare.
func (s *Store[T]) recycle(a []T) {
	if cap(a) == 0 {
		return
	}
	a = a[:cap(a)]
	clear(a)
	s.spare = a[:0]
}
