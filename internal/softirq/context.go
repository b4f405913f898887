package softirq

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
	ring Ring[T]

	// Handle processes one dequeued item. Must be set before Run.
	Handle func(T)
	// Idle, if non-nil, is invoked by Run the moment the ring drains —
	// the work-conservation hook (§3.3/§3.5: flush partial aggregates
	// when there is nothing left to batch them with).
	Idle func()
}

// NewContext creates a softirq context with a ring of at least capacity
// items.
func NewContext[T any](capacity int) (*Context[T], error) {
	r, err := NewRing[T](capacity)
	if err != nil {
		return nil, err
	}
	return &Context[T]{ring: r}, nil
}

// Len returns the number of items awaiting softirq processing.
func (c *Context[T]) Len() int { return c.ring.Len() }

// Cap returns the ring capacity (producers can probe for space before
// committing work that would be wasted on a full ring).
func (c *Context[T]) Cap() int { return c.ring.Cap() }

// Enqueue is the producer side (interrupt context): it reports false when
// the ring is full, in which case the producer counts a drop — the same
// behaviour as a softirq backlog overflow in Linux.
func (c *Context[T]) Enqueue(v T) bool { return c.ring.Push(v) }

// Run is the consumer side (softirq context): it handles up to budget
// items and fires Idle when the ring drains at or before the budget.
// It returns the number of items consumed.
func (c *Context[T]) Run(budget int) int {
	if c.Handle == nil {
		panic("softirq: Handle not wired")
	}
	n := 0
	for n < budget {
		v, ok := c.ring.Pop()
		if !ok {
			break
		}
		c.Handle(v)
		n++
	}
	if c.ring.Empty() && c.Idle != nil {
		c.Idle()
	}
	return n
}
