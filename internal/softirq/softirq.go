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
// descriptor rings are the same type.
package softirq

import "fmt"

// Ring is a bounded FIFO queue. It is used by value inside its owner, so
// building one allocates only its slot array.
type Ring[T any] struct {
	buf  []T
	mask uint64
	head uint64 // consumer position
	tail uint64 // producer position
}

// NewRing creates a ring with capacity rounded up to a power of two.
func NewRing[T any](capacity int) (Ring[T], error) {
	if capacity <= 0 {
		return Ring[T]{}, fmt.Errorf("softirq: capacity %d must be positive", capacity)
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return Ring[T]{buf: make([]T, n), mask: uint64(n - 1)}, nil
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return int(r.tail - r.head) }

// Empty reports whether the ring has no queued items.
func (r *Ring[T]) Empty() bool { return r.tail == r.head }

// Push enqueues v; it returns false if the ring is full.
func (r *Ring[T]) Push(v T) bool {
	if r.tail-r.head >= uint64(len(r.buf)) {
		return false
	}
	r.buf[r.tail&r.mask] = v
	r.tail++
	return true
}

// Pop dequeues the oldest item, clearing its slot so the ring keeps no
// reference to it.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	if r.head == r.tail {
		return zero, false
	}
	v := r.buf[r.head&r.mask]
	r.buf[r.head&r.mask] = zero
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
