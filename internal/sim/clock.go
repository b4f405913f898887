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
//
// The parallel scheduler (parsched.go) runs several Sim instances — one
// per event lane — and merges them on (at, schedAt, seq). schedAt is the
// virtual time Schedule was called at; because events execute in
// non-decreasing virtual time, seq order refines schedAt order, so adding
// schedAt ahead of seq in the heap comparison never changes the serial
// schedule while giving lanes a cross-heap merge key that reproduces it.
type Sim struct {
	now    uint64
	seq    uint64
	events eventHeap

	// curSchedAt/curSeq identify the event currently executing; lanes
	// use them to stamp recorded cross-lane effects (ring pushes, reverse
	// transmissions) with the serial-order key of their generating event.
	curSchedAt uint64
	curSeq     uint64
}

// NewSim returns a simulation at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time in nanoseconds.
func (s *Sim) Now() uint64 { return s.now }

// Clock returns a tcp.Clock-compatible time source.
func (s *Sim) Clock() func() uint64 {
	return func() uint64 { return s.now }
}

// Schedule runs fn at absolute virtual time at (clamped to now).
func (s *Sim) Schedule(at uint64, fn func()) {
	if fn == nil {
		panic("sim: nil event")
	}
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.events.push(event{at: at, schedAt: s.now, seq: s.seq, fn: fn})
}

// ScheduleKeyed inserts fn with an explicit (schedAt, seq) ordering key
// instead of stamping the current time and next sequence number. The
// parallel scheduler uses it to commit cross-lane effects and to requeue
// a stalled event without disturbing its original position in the
// canonical serial order.
func (s *Sim) ScheduleKeyed(at, schedAt, seq uint64, fn func()) {
	if fn == nil {
		panic("sim: nil event")
	}
	s.events.push(event{at: at, schedAt: schedAt, seq: seq, fn: fn})
}

// CurKey returns the ordering key (schedAt, seq) of the event currently
// executing (valid only inside an event callback).
func (s *Sim) CurKey() (schedAt, seq uint64) { return s.curSchedAt, s.curSeq }

// NextAt returns the timestamp of the earliest pending event, or ok=false
// when the queue is empty.
func (s *Sim) NextAt() (at uint64, ok bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// PeekKey returns the cross-lane merge key (at, schedAt) of the earliest
// pending event without removing it.
func (s *Sim) PeekKey() (at, schedAt uint64, ok bool) {
	if len(s.events) == 0 {
		return 0, 0, false
	}
	return s.events[0].at, s.events[0].schedAt, true
}

// SetNow advances the clock without running events (parallel-scheduler
// barrier use only). Panics if that would run past a pending event.
func (s *Sim) SetNow(t uint64) {
	if t < s.now {
		return
	}
	if at, ok := s.NextAt(); ok && at < t {
		panic("sim: SetNow past pending event")
	}
	s.now = t
}

// PopNext removes and returns the earliest pending event (parallel
// scheduler merged-window use). ok=false when empty.
func (s *Sim) PopNext() (ev event, ok bool) {
	if len(s.events) == 0 {
		return event{}, false
	}
	return s.events.pop(), true
}

// RunEvent advances the clock to ev.at and executes it, restoring the
// caller's current-key bookkeeping afterwards.
func (s *Sim) RunEvent(ev event) {
	s.now = ev.at
	s.curSchedAt, s.curSeq = ev.schedAt, ev.seq
	ev.fn()
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
		s.curSchedAt, s.curSeq = ev.schedAt, ev.seq
		ev.fn()
		n++
	}
	if s.now < deadline {
		s.now = deadline
	}
	return n
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.events) }

type event struct {
	at      uint64
	schedAt uint64 // virtual time the event was scheduled at
	seq     uint64 // tie-break: FIFO among simultaneous events
	fn      func()
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
	// Serially seq alone suffices: Schedule is called in execution order,
	// so seq refines schedAt and inserting schedAt first is a no-op. It
	// matters only when lanes merge keyed events from different heaps.
	if h[i].schedAt != h[j].schedAt {
		return h[i].schedAt < h[j].schedAt
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
