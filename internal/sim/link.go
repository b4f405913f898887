package sim

import (
	"repro/internal/ether"
	"repro/internal/nic"
	"repro/internal/telemetry"
)

// Link is one full-duplex Gigabit Ethernet segment between a sender
// machine and one receiver NIC.
//
// The forward (data) direction is a pull model: when the wire is free and
// the receiver ring has headroom, the link asks the sender for its next
// frame and occupies the wire for the frame's serialization time. When the
// ring is near-full the link pauses (IEEE 802.3x-style backpressure)
// instead of dropping — the lossless LAN regime of the paper's testbed
// (ARCHITECTURE.md, "Lossless links: pause instead of drop"). The reverse
// (ACK) direction is delivered after the propagation delay without rate
// limiting: ACK volume is under 5% of link capacity and never contends in
// these workloads.
type Link struct {
	sim    *Sim
	sender *SenderMachine
	dst    *nic.NIC

	// RateBps is the line rate (default 1 Gb/s).
	RateBps uint64
	// DelayNs is the one-way propagation + switching delay.
	DelayNs uint64
	// PauseRetryNs is how long a paused link waits before re-checking
	// ring headroom.
	PauseRetryNs uint64
	// RingHeadroom is the occupancy margin that triggers pause: the
	// link stops when fewer than this many ring slots remain, covering
	// frames already in flight.
	RingHeadroom int

	// CorruptOneIn, when positive, flips a payload bit in every Nth
	// forward frame after serialization — wire corruption the NIC's
	// checksum offload will catch, driving the receiver's dup-ACK and
	// the sender's fast-retransmit machinery.
	CorruptOneIn int

	// LossOneIn, when positive, drops each forward frame with
	// probability 1/N — the uniform arm of the loss injector. The
	// decision is a seeded hash of the per-link loss counter, so it is
	// identical in serial and parallel scheduling (the counter advances
	// in the link lane's deterministic delivery order) and independent
	// of everything else in the run.
	LossOneIn int
	// BurstLossRate, when positive, switches the injector to the
	// two-state Gilbert-Elliott burst model with this target loss
	// fraction: drops arrive in runs of mean length BurstLossLen
	// instead of uniformly. Mutually exclusive with LossOneIn.
	BurstLossRate float64
	// BurstLossLen is the Gilbert-Elliott mean burst length in frames
	// (0 = DefaultBurstLossLen).
	BurstLossLen float64
	// LossSeed seeds the injector's PRNG (links get distinct seeds so
	// parallel wires don't drop in lockstep).
	LossSeed uint64

	// ReorderOneIn, when positive, displaces every Nth forward frame by
	// ReorderDistance positions: the frame is withheld at the receiver
	// edge until that many later frames have been delivered, then
	// injected — the deterministic reorder fault of a coalescing
	// multi-queue receiver (adjacent swaps at distance 1, k-distance
	// displacement beyond; Wu et al.). The displacement is at the
	// delivery point, after serialization, so wire timing and
	// backpressure are unchanged.
	ReorderOneIn int
	// ReorderDistance is the displacement distance in frames (0 = 1,
	// the adjacent swap).
	ReorderDistance int

	// onStall, when set (parallel scheduler), is consulted before the
	// ring-occupancy pause check. During a parallel link phase the exact
	// check is unavailable — the owning CPU lane may still drain the ring
	// inside the window — so the hook tests the conservative shadow bound
	// and, on pressure, returns true: transmitNext requeues itself at its
	// original ordering key and the lane halts, deferring the decision to
	// the epoch barrier where the hook returns false and the exact check
	// below runs with fully merged ring state.
	onStall func() bool

	busy     bool
	fwdCount int
	stats    LinkStats

	// wire holds the forward frames between transmit start and arrival, in
	// send order. Serialization is sequential and the delay constant, so
	// they arrive in that order: each arrival is the one pre-bound arriveFn
	// event popping the head (no closure per frame).
	wire     wireFIFO
	arriveFn func()
	// revFree recycles delivered reverse frames with their pre-bound
	// events, so the ACK direction allocates no closure per frame either.
	revFree []*revFrame

	// wireFreeFn is the pre-bound "serialization finished" event (one
	// closure for the link's lifetime instead of one per frame).
	wireFreeFn func()
	// transmitFn is the pre-bound transmitNext method value: the stall
	// requeue path runs once per deferred ring-headroom check and a fresh
	// method-value binding each time was a measurable allocation source.
	transmitFn func()

	// Reorder-injector state: the withheld frame (nil data = none) and how
	// many deliveries remain before it is released.
	reorderCount int
	displaced    wireFrame
	displaceLeft int

	// Loss-injector state: frames considered and the Gilbert-Elliott
	// channel state (true = bad/bursting).
	lossCount int
	lossBad   bool

	// spanLane/spanTrack, when wired (buildStream, tracing enabled),
	// record one wire-occupancy span per forward frame. Recording reads
	// the clock only; it never schedules (telemetry invariant).
	spanLane  *telemetry.SpanLane
	spanTrack string
}

// LinkStats counts link activity.
type LinkStats struct {
	FramesDelivered uint64
	BytesDelivered  uint64
	PauseEvents     uint64
	IdleEvents      uint64
	ReverseFrames   uint64
	Corrupted       uint64
	// Reordered counts frames the reorder injector displaced.
	Reordered uint64
	// Lost counts forward frames the loss injector dropped.
	Lost uint64
}

// DefaultBurstLossLen is the Gilbert-Elliott mean burst length used when
// BurstLossLen is unset: drops cluster in runs of ~4 frames, the regime
// where cumulative-ACK recovery degrades fastest.
const DefaultBurstLossLen = 4.0

// DefaultLinkDelayNs is the one-way delay used by the experiments. It is
// calibrated so that the netperf-style request/response benchmark lands
// near the paper's ~7,900 transactions/s on native Linux (Table 1):
// 1/7900s = 126.6 us per transaction, of which ~121 us is wire and client
// time and the rest is receive-path processing.
const DefaultLinkDelayNs = 61_500

// NewLink wires sender -> dst with default Gigabit parameters.
func NewLink(s *Sim, sender *SenderMachine, dst *nic.NIC) *Link {
	l := &Link{
		sim:          s,
		sender:       sender,
		dst:          dst,
		RateBps:      1_000_000_000,
		DelayNs:      DefaultLinkDelayNs,
		PauseRetryNs: 15_000,
		RingHeadroom: 24,
	}
	sender.OnWindowOpen = l.Kick
	l.wireFreeFn = func() {
		l.busy = false
		l.transmitNext()
	}
	l.transmitFn = l.transmitNext
	l.arriveFn = l.arrive
	return l
}

// wireFrame is one forward frame in flight: its buffer (pooled when it
// belongs to the sender's frame pool), its transmit-start stamp, and the
// corruption verdict drawn at transmit.
type wireFrame struct {
	data    []byte
	pooled  bool
	sentNs  uint64
	corrupt bool
}

// wireFIFO is a growable ring of in-flight frames.
type wireFIFO struct {
	ring    []wireFrame
	head, n int
}

func (q *wireFIFO) push(w wireFrame) {
	if q.n == len(q.ring) {
		grown := make([]wireFrame, max(2*len(q.ring), 8))
		for i := 0; i < q.n; i++ {
			grown[i] = q.ring[(q.head+i)%len(q.ring)]
		}
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = w
	q.n++
}

func (q *wireFIFO) pop() wireFrame {
	w := q.ring[q.head]
	q.ring[q.head] = wireFrame{}
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	return w
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Kick attempts to start (or resume) forward transmission. Idempotent.
func (l *Link) Kick() {
	if l.busy {
		return
	}
	l.transmitNext()
}

// wireTimeNs returns the serialization time of a frame including preamble,
// FCS and inter-frame gap.
func (l *Link) wireTimeNs(frameLen int) uint64 {
	bits := uint64(frameLen+ether.PerFrameOverhead) * 8
	return bits * 1_000_000_000 / l.RateBps
}

// transmitNext pulls one frame if the wire is free and the ring has room.
func (l *Link) transmitNext() {
	if l.busy {
		return
	}
	if l.onStall != nil && l.onStall() {
		// Parallel phase: ring pressure cannot be decided on this lane.
		// Re-enter at the same key so the deferred attempt holds exactly
		// this event's position in the canonical serial order.
		schedAt, seq := l.sim.CurKey()
		l.sim.ScheduleKeyed(l.sim.Now(), schedAt, seq, l.transmitFn)
		return
	}
	if l.dst.RxNearFull(l.RingHeadroom) {
		// Pause: ring nearly full; hold the wire and retry shortly.
		// The in-flight margin guarantees no drops between check and
		// delivery.
		l.stats.PauseEvents++
		l.busy = true
		l.sim.After(l.PauseRetryNs, l.wireFreeFn)
		return
	}
	frame := l.sender.NextFrame()
	if frame == nil {
		// Window-limited: the sender will Kick when ACKs arrive. If
		// nothing remains in flight either, release any displaced frame
		// (its reorder window cannot fill while the wire idles — holding
		// it would deadlock the ACK clock) and flush the NIC's coalesced
		// interrupt so the tail of a burst is processed immediately
		// (this is what keeps request/response latency flat, §5.4).
		l.stats.IdleEvents++
		if l.wire.n == 0 {
			l.releaseDisplaced()
			l.dst.FlushInterrupt()
		}
		return
	}
	l.busy = true
	wire := l.wireTimeNs(len(frame))
	sentNs := l.sim.Now() // transmit start: the frame's StageWire boundary
	l.spanLane.Record(l.spanTrack, "tx", sentNs, wire)
	// Wire becomes free after serialization; the frame lands at the
	// receiver one propagation delay later.
	l.sim.After(wire, l.wireFreeFn)
	l.fwdCount++
	l.wire.push(wireFrame{
		data:    frame,
		pooled:  l.sender.alloc.Pool() != nil,
		sentNs:  sentNs,
		corrupt: l.CorruptOneIn > 0 && l.fwdCount%l.CorruptOneIn == 0,
	})
	l.sim.After(wire+l.DelayNs, l.arriveFn)
}

// arrive lands the oldest in-flight frame at the receiver edge.
func (l *Link) arrive() {
	w := l.wire.pop()
	if l.dropLost() {
		// The frame vanishes at the delivery point: wire timing and
		// backpressure already happened, exactly like corruption. Its
		// buffer goes back to the sender's pool. The idle check below (and
		// the one in transmitNext) is the wire-idle release discipline —
		// when a drop leaves nothing in flight and the sender
		// window-limited, the displaced frame is released and the coalesced
		// interrupt flushed, so a dropped frame can never strand the ACK
		// clock.
		l.stats.Lost++
		l.release(w)
	} else {
		if w.corrupt && len(w.data) > 70 {
			w.data[len(w.data)-1] ^= 0x01
			l.stats.Corrupted++
		}
		l.deliverForward(w)
	}
	if l.wire.n == 0 && !l.busy {
		l.releaseDisplaced()
		l.dst.FlushInterrupt()
	}
}

// release ends the life of a forward frame that never reached the ring.
func (l *Link) release(w wireFrame) {
	if w.pooled {
		l.sender.alloc.Release(w.data)
	}
}

// lossEnabled reports whether either loss arm is configured.
func (l *Link) lossEnabled() bool { return l.LossOneIn > 0 || l.BurstLossRate > 0 }

// dropLost decides the fate of one delivered forward frame. Both arms
// draw from splitmix64 over (LossSeed, lossCount): the decision depends
// only on the frame's position in this link's delivery order, which the
// parallel scheduler reproduces bit-exactly.
func (l *Link) dropLost() bool {
	if !l.lossEnabled() {
		return false
	}
	l.lossCount++
	r := splitmix64(l.LossSeed ^ (uint64(l.lossCount) * 0x9e3779b97f4a7c15))
	if l.LossOneIn > 0 {
		return r%uint64(l.LossOneIn) == 0
	}
	// Gilbert-Elliott: transition first, then drop while in the bad
	// state. Mean bad sojourn = 1/q frames = the burst length; the
	// good→bad rate p is solved from the stationary loss fraction
	// f = p/(p+q).
	f := l.BurstLossRate
	if f >= 1 {
		return true
	}
	blen := l.BurstLossLen
	if blen < 1 {
		blen = DefaultBurstLossLen
	}
	q := 1 / blen
	p := q * f / (1 - f)
	u := float64(r>>11) / (1 << 53)
	if l.lossBad {
		if u < q {
			l.lossBad = false
		}
	} else {
		if u < p {
			l.lossBad = true
		}
	}
	return l.lossBad
}

// splitmix64 is the SplitMix64 finalizer: a high-quality stateless mix
// from counter to uniform 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// deliverForward hands a frame to the receiver NIC, applying the reorder
// injector: every ReorderOneIn-th frame is withheld and re-injected after
// ReorderDistance later frames have been delivered.
func (l *Link) deliverForward(w wireFrame) {
	if l.ReorderOneIn <= 0 {
		l.deliver(w)
		return
	}
	if l.displaced.data != nil {
		l.deliver(w)
		l.displaceLeft--
		if l.displaceLeft <= 0 {
			l.releaseDisplaced()
		}
		return
	}
	l.reorderCount++
	if l.reorderCount%l.ReorderOneIn == 0 {
		l.displaced = w
		l.displaceLeft = l.ReorderDistance
		if l.displaceLeft <= 0 {
			l.displaceLeft = 1 // adjacent swap
		}
		return
	}
	l.deliver(w)
}

// releaseDisplaced injects the withheld frame, if any.
func (l *Link) releaseDisplaced() {
	if l.displaced.data == nil {
		return
	}
	w := l.displaced
	l.displaced = wireFrame{}
	l.stats.Reordered++
	l.deliver(w)
}

// deliver is the actual handoff into the receiver's ring, stamping the
// frame's wire interval (transmit start and arrival). A frame the full
// ring rejects dies here.
func (l *Link) deliver(w wireFrame) {
	l.stats.FramesDelivered++
	l.stats.BytesDelivered += uint64(len(w.data))
	f := nic.Frame{Data: w.data, Pooled: w.pooled, SentNs: w.sentNs, ArriveNs: l.sim.Now()}
	if !l.dst.ReceiveFromWire(f) {
		l.release(w)
	}
}

// DeliverReverse carries a receiver-transmitted frame back to the sender
// after the propagation delay, holding it extraNs longer before it leaves
// the receiver (CPU processing time of the round that produced it). A
// Pooled frame is released by the sender once processed.
func (l *Link) DeliverReverse(f nic.Frame, extraNs uint64) {
	l.stats.ReverseFrames++
	l.sim.After(extraNs+l.DelayNs, l.reverseEvent(f))
}

// DeliverReverseAt is DeliverReverse for callers whose notion of "now" is
// not this link's lane clock: the parallel scheduler's mailbox commit and
// epoch barrier, where the transmit happened at virtual time `at` on a CPU
// lane that may be ahead of or behind this link's lane. The frame reaches
// the sender at at+extraNs+DelayNs, keyed exactly as the serial schedule
// would have keyed it (schedAt = the transmit instant).
func (l *Link) DeliverReverseAt(f nic.Frame, at, extraNs uint64) {
	l.stats.ReverseFrames++
	l.sim.seq++
	l.sim.ScheduleKeyed(at+extraNs+l.DelayNs, at, l.sim.seq, l.reverseEvent(f))
}

// revFrame is one reverse frame in flight with its pre-bound arrival
// event. Reverse frames need not arrive in send order (each departs after
// its own round's CPU time), so unlike the forward FIFO each carries its
// own event; arrived ones are recycled through Link.revFree.
type revFrame struct {
	l      *Link
	data   []byte
	pooled bool
	fn     func()
}

// reverseEvent returns the arrival event for f, reusing a recycled record
// when one is free.
func (l *Link) reverseEvent(f nic.Frame) func() {
	var r *revFrame
	if n := len(l.revFree); n > 0 {
		r = l.revFree[n-1]
		l.revFree = l.revFree[:n-1]
	} else {
		r = &revFrame{l: l}
		r.fn = r.arrive
	}
	r.data, r.pooled = f.Data, f.Pooled
	return r.fn
}

// arrive hands the frame to the sender and recycles the record.
func (r *revFrame) arrive() {
	l, data, pooled := r.l, r.data, r.pooled
	r.data = nil
	l.revFree = append(l.revFree, r)
	l.sender.receiveReverse(data, pooled)
}
