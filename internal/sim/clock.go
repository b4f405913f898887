// Package sim is the discrete-event simulation harness that reproduces the
// paper's evaluation (§5): sender machines drive Gigabit links into a
// receiver machine (native Linux UP/SMP or a Xen guest), the receiver's
// charged CPU cycles advance virtual time, and throughput emerges from the
// interplay of link rate, windows and CPU saturation — exactly the
// mechanism of the paper's testbed, with the hardware replaced by the cost
// model (see ARCHITECTURE.md, "Model substitutions").
package sim

// Sim is a virtual clock with an event queue. Nanosecond resolution.
// Events run in (at, seq) order: by time, then FIFO among simultaneous
// events.
type Sim struct {
	now    uint64
	seq    uint64
	events eventHeap
	clock  func() uint64 // Now, bound once for Clock
}

// NewSim returns a simulation at time zero.
func NewSim() *Sim {
	s := &Sim{}
	s.clock = s.Now
	return s
}

// Now returns the current virtual time in nanoseconds.
func (s *Sim) Now() uint64 { return s.now }

// Clock returns a tcp.Clock-compatible time source: the same function on
// every call, so handing it to each new endpoint allocates nothing.
func (s *Sim) Clock() func() uint64 { return s.clock }

// handler is an event's receiver, a record that acts when its instant
// comes. A pointer stored in an interface does not allocate, so scheduling
// a recycled record allocates nothing (ARCHITECTURE.md, "Typed events").
type handler interface{ fire() }

// Schedule fires h at absolute virtual time at (clamped to now).
func (s *Sim) Schedule(at uint64, h handler) {
	if h == nil {
		panic("sim: nil event")
	}
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, h: h})
}

// After fires h at now+delay.
func (s *Sim) After(delay uint64, h handler) {
	s.Schedule(s.now+delay, h)
}

// RunUntil executes events in timestamp order until the queue is empty or
// virtual time reaches deadline. It returns the number of events executed.
func (s *Sim) RunUntil(deadline uint64) int {
	n := 0
	for len(s.events) > 0 && s.events[0].at <= deadline {
		ev := s.events.pop()
		s.now = ev.at
		ev.h.fire()
		n++
	}
	if s.now < deadline {
		s.now = deadline
	}
	return n
}

type event struct {
	at  uint64
	seq uint64 // tie-break: FIFO among simultaneous events
	h   handler
}

// before reports whether a runs before b: the (at, seq) order, which is
// total, so the heap pops the same sequence whatever its shape.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled binary min-heap of 32-byte events (key and
// handler, two words each); container/heap would box every event through
// interface{}. Both sifts move a hole, one event copy per level instead
// of a swap's three. A 4-ary heap was measured and rejected
// (ARCHITECTURE.md, "Typed events").
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = event{} // release the handler reference
	*h = s[:n]
	if n == 0 {
		return top
	}
	s = s[:n]
	// Sift the last event down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(&s[c]) {
			c = r
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}
