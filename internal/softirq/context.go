package softirq

import "fmt"

// Context is one per-CPU softirq processing context: the bounded ring
// that interrupt-context producers (one NIC queue's driver, or several
// drivers pinned to the same CPU) feed, plus the handler that softirq
// context drains it with.
//
// In the multi-queue RSS pipeline there is one Context per receive queue,
// pinned to the CPU that owns the queue. Because RSS steers every frame
// of a flow to the same queue, a Context only ever sees whole flows, and
// everything the handler touches (aggregation slots, flow-table shards)
// can be CPU-local — the lock-free property of the paper's §3.5 per-CPU
// aggregation queue, preserved at N queues.
type Context[T any] struct {
	cpu  int
	ring Ring[T]

	// Handle processes one dequeued item. Must be set before Run.
	Handle func(T)
	// Idle, if non-nil, is invoked by Run the moment the ring drains —
	// the work-conservation hook (§3.3/§3.5: flush partial aggregates
	// when there is nothing left to batch them with).
	Idle func()

	stats ContextStats
}

// ContextStats counts context activity.
type ContextStats struct {
	Enqueued    uint64 // items accepted from producers
	EnqueueFull uint64 // items rejected because the ring was full
	Consumed    uint64 // items handled in softirq context
	Runs        uint64 // softirq rounds executed
	IdleFlushes uint64 // rounds that drained the ring and fired Idle
}

// NewContext creates a softirq context for the given CPU with a ring of
// at least capacity items.
func NewContext[T any](cpu, capacity int) (*Context[T], error) {
	if cpu < 0 {
		return nil, fmt.Errorf("softirq: cpu %d must be non-negative", cpu)
	}
	r, err := NewRing[T](capacity)
	if err != nil {
		return nil, err
	}
	return &Context[T]{cpu: cpu, ring: r}, nil
}

// CPU returns the CPU this context is pinned to.
func (c *Context[T]) CPU() int { return c.cpu }

// Len returns the number of items awaiting softirq processing.
func (c *Context[T]) Len() int { return c.ring.Len() }

// Cap returns the ring capacity (producers can probe for space before
// committing work that would be wasted on a full ring).
func (c *Context[T]) Cap() int { return c.ring.Cap() }

// Stats returns a copy of the context counters.
func (c *Context[T]) Stats() ContextStats { return c.stats }

// Enqueue is the producer side (interrupt context): it reports false when
// the ring is full, in which case the producer counts a drop — the same
// behaviour as a softirq backlog overflow in Linux.
func (c *Context[T]) Enqueue(v T) bool {
	if !c.ring.Push(v) {
		c.stats.EnqueueFull++
		return false
	}
	c.stats.Enqueued++
	return true
}

// Run is the consumer side (softirq context): it handles up to budget
// items and fires Idle when the ring drains at or before the budget.
// It returns the number of items consumed.
func (c *Context[T]) Run(budget int) int {
	if c.Handle == nil {
		panic("softirq: Handle not wired")
	}
	c.stats.Runs++
	n := 0
	for n < budget {
		v, ok := c.ring.Pop()
		if !ok {
			break
		}
		c.Handle(v)
		n++
	}
	c.stats.Consumed += uint64(n)
	if c.ring.Empty() && c.Idle != nil {
		c.stats.IdleFlushes++
		c.Idle()
	}
	return n
}
