// Package softirq provides the per-CPU producer/consumer queue that
// connects the interrupt-context driver to the softirq-context
// aggregation routine (paper §3.5: "The 'aggregation queue' is a per-CPU
// queue, and is implemented in a lock-free manner").
//
// The queue is a bounded FIFO ring: the NIC driver (interrupt context)
// produces, the aggregation routine (softirq context) consumes. A run of
// the simulator is one goroutine, so the ring needs no synchronization;
// the paper's lock-free property is modelled by what is not charged — no
// SMP lock costs are charged for queue access. The NIC's receive
// descriptor rings and the link's wire queues are the same type.
package softirq

import "fmt"

// firstSlots is the slot array a ring allocates on its first Push (or its
// bound, if smaller). It covers the deepest backlog of most queues, so a
// ring usually allocates once and never grows.
const firstSlots = 64

// Ring is a FIFO queue with an optional bound. The bound decides when
// Push refuses; it is not storage: the slot array is allocated on the
// first Push and doubles when full, so it holds the deepest backlog the
// ring has reached, not its bound. The zero value is an empty ring with
// no bound. A ring is used by value inside its owner.
type Ring[T any] struct {
	buf   []T    // len is zero or a power of two
	head  uint64 // consumer position
	tail  uint64 // producer position
	bound int    // 0: unbounded
}

// NewRing creates an empty ring whose bound is capacity rounded up to a
// power of two. It allocates nothing.
func NewRing[T any](capacity int) (Ring[T], error) {
	if capacity <= 0 {
		return Ring[T]{}, fmt.Errorf("softirq: capacity %d must be positive", capacity)
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return Ring[T]{bound: n}, nil
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return int(r.tail - r.head) }

// Empty reports whether the ring has no queued items.
func (r *Ring[T]) Empty() bool { return r.tail == r.head }

// Push enqueues v; it returns false if the ring holds its bound.
func (r *Ring[T]) Push(v T) bool {
	if r.tail-r.head == uint64(len(r.buf)) && !r.grow() {
		return false
	}
	r.buf[r.tail&uint64(len(r.buf)-1)] = v
	r.tail++
	return true
}

// grow doubles the full slot array (or allocates the first one), copying
// the backlog to its front in FIFO order. It reports false, allocating
// nothing, when the ring already holds its bound.
func (r *Ring[T]) grow() bool {
	n := len(r.buf)
	if r.bound > 0 && n >= r.bound {
		return false
	}
	size := max(2*n, firstSlots)
	if r.bound > 0 {
		size = min(size, r.bound)
	}
	grown := make([]T, size)
	h := int(r.head & uint64(n-1)) // head is 0 while there are no slots
	copy(grown, r.buf[h:])
	copy(grown[n-h:], r.buf[:h])
	r.buf, r.head, r.tail = grown, 0, uint64(n)
	return true
}

// Pop dequeues the oldest item, clearing its slot so the ring keeps no
// reference to it.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	if r.head == r.tail {
		return zero, false
	}
	i := r.head & uint64(len(r.buf)-1)
	v := r.buf[i]
	r.buf[i] = zero
	r.head++
	return v, true
}

// PopBatch dequeues up to max items, appending them to out (whose
// existing contents are kept), and returns the extended slice.
func (r *Ring[T]) PopBatch(out []T, max int) []T {
	for ; max > 0; max-- {
		v, ok := r.Pop()
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}
