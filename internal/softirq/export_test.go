package softirq

// Cap returns the ring's bound (0 for an unbounded ring).
func (r *Ring[T]) Cap() int { return r.bound }
