// Package sim is the discrete-event simulation harness that reproduces the
// paper's evaluation (§5): sender machines drive Gigabit links into a
// receiver machine (native Linux UP/SMP or a Xen guest), the receiver's
// charged CPU cycles advance virtual time, and throughput emerges from the
// interplay of link rate, windows and CPU saturation — exactly the
// mechanism of the paper's testbed, with the hardware replaced by the cost
// model (see ARCHITECTURE.md, "Model substitutions").
package sim

import (
	"fmt"
)

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

// Schedule runs fn at absolute virtual time at (clamped to now).
func (s *Sim) Schedule(at uint64, fn func()) {
	if fn == nil {
		panic("sim: nil event")
	}
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, fn: fn})
}

// After runs fn at now+delay.
func (s *Sim) After(delay uint64, fn func()) {
	s.Schedule(s.now+delay, fn)
}

// RunUntil executes events in timestamp order until the queue is empty or
// virtual time reaches deadline. It returns the number of events executed.
func (s *Sim) RunUntil(deadline uint64) int {
	n := 0
	for len(s.events) > 0 {
		ev := s.events[0]
		if ev.at > deadline {
			break
		}
		s.events.pop()
		s.now = ev.at
		ev.fn()
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
	fn  func()
}

// eventHeap is a hand-rolled binary min-heap. container/heap would box
// every pushed and popped event through interface{} — two allocations per
// scheduled event, which profiling showed was ~38% of all hot-path
// allocations in a stream run.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	// Sift up.
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = event{} // release the fn reference
	*h = s[:n]
	s = s[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.less(l, small) {
			small = l
		}
		if r < n && s.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// String summarizes the sim state (debugging aid).
func (s *Sim) String() string {
	return fmt.Sprintf("sim{t=%dns, pending=%d}", s.now, len(s.events))
}
