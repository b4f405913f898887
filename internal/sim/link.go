package sim

import (
	"repro/internal/ether"
	"repro/internal/nic"
	"repro/internal/softirq"
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

	// DelayNs is the one-way propagation + switching delay.
	DelayNs uint64
	// RingHeadroom is the occupancy margin that triggers pause: the
	// link stops when fewer than this many ring slots remain, covering
	// frames already in flight.
	RingHeadroom int

	// Faults configures the fault stage every forward frame passes at the
	// receiver edge (zero value: a clean wire).
	Faults

	busy  bool
	stats LinkStats

	// wire holds the forward frames between transmit start and arrival, in
	// send order. Serialization is sequential and the delay constant, so
	// they arrive in that order: each arrival is the link's own arrival
	// event popping the head (no record per frame).
	wire softirq.Ring[wireFrame] // unbounded
	// revFree is the stack of arrived reverse-frame records, linked
	// through revFrame.next, and revPage the uncarved rest of the current
	// page of revPageLen records. Each record is its own event and is
	// recycled, so the ACK direction carves its records eight at a time
	// and allocates nothing else per frame.
	revFree *revFrame
	revPage []revFrame

	// Fault-stage state. Corruption and loss key on arrivals, the count of
	// frames reaching the receiver edge (in transmit order, so it is also
	// the transmit index). The reorder injector counts only the frames
	// offered to it while none is withheld (reorderCount); displaced is the
	// withheld frame (nil data = none). lossBad is the Gilbert-Elliott
	// channel state (true = bursting).
	arrivals     int
	reorderCount int
	displaced    wireFrame
	displaceLeft int
	lossBad      bool

	// spans/spanTrack, when wired (newTopology, tracing enabled), record
	// one wire-occupancy span per forward frame. Recording reads the
	// clock only; it never schedules (telemetry invariant).
	spans     *telemetry.SpanRecorder
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

// Faults configures the link's fault stage, which runs on each forward
// frame as it reaches the receiver edge (after serialization, so wire
// timing and backpressure are unchanged). Each frame is lost, corrupted or
// passed; corrupted and passed frames go on through the reorder injector.
type Faults struct {
	// CorruptOneIn, when positive, flips a payload bit in every Nth frame
	// reaching the receiver edge, lost frames included in the count (a
	// lost frame is not corrupted). The NIC's checksum offload catches it.
	CorruptOneIn int
	Reorder      ReorderConfig
	Loss         LossConfig
}

// ReorderConfig tunes the reorder fault injector: every OneIn-th frame is
// withheld at the receiver edge until Distance later frames have been
// delivered, then injected — the frame displacement a coalescing
// multi-queue receiver sees (adjacent swaps at distance 1, k-distance
// displacement beyond; Wu et al.).
type ReorderConfig struct {
	// OneIn displaces every Nth forward frame per link (0 = off).
	OneIn int
	// Distance is the displacement distance in frames (0 or 1 = the
	// adjacent swap; k > 1 delays the frame past k successors).
	Distance int
}

// LossConfig tunes the loss fault injector: deterministic frame drops
// standing in for congestion or a noisy path. Exactly one model may be
// active — OneIn (uniform) or BurstRate (Gilbert-Elliott). Drop decisions
// are a pure function of the per-link frame counter and seed, so a given
// config drops the very same frames on every run and under either
// scheduler.
type LossConfig struct {
	// OneIn drops forward frames at a uniform rate of 1 in OneIn
	// (0 = off).
	OneIn int
	// BurstRate is the Gilbert-Elliott stationary loss fraction in
	// (0, 1) (0 = off); the mean bad-state burst is DefaultBurstLossLen
	// frames.
	BurstRate float64
	// Seed perturbs the drop sequence; in a stream run link i draws from
	// Seed+i, so multi-link runs do not drop in lockstep.
	Seed uint64
}

// active reports whether any loss model is configured.
func (c LossConfig) active() bool { return c.OneIn > 0 || c.BurstRate > 0 }

// DefaultBurstLossLen is the Gilbert-Elliott mean burst length in frames:
// drops cluster in runs of ~4 frames, the regime where cumulative-ACK
// recovery degrades fastest.
const DefaultBurstLossLen = 4.0

// DefaultLinkDelayNs is the one-way delay used by the experiments. It is
// calibrated so that the netperf-style request/response benchmark lands
// near the paper's ~7,900 transactions/s on native Linux (Table 1):
// 1/7900s = 126.6 us per transaction, of which ~121 us is wire and client
// time and the rest is receive-path processing.
const DefaultLinkDelayNs = 61_500

// lineRateBps is every link's line rate: Gigabit Ethernet.
const lineRateBps = 1_000_000_000

// pauseRetryNs is how long a paused link waits before re-checking ring
// headroom.
const pauseRetryNs = 15_000

// NewLink wires sender -> dst with default Gigabit parameters.
func NewLink(s *Sim, sender *SenderMachine, dst *nic.NIC) *Link {
	l := &Link{
		sim:          s,
		sender:       sender,
		dst:          dst,
		DelayNs:      DefaultLinkDelayNs,
		RingHeadroom: 24,
	}
	sender.OnWindowOpen = l.Kick
	return l
}

// wireFree (serialization or a pause is over) and arrival are the link's
// forward events: the link pointer itself, under another method set.
type (
	wireFree Link
	arrival  Link
)

func (w *wireFree) fire() {
	w.busy = false
	(*Link)(w).Kick()
}

// wireFrame is one forward frame in flight: its buffer (pooled when it
// belongs to the sender's frame pool) and its transmit-start stamp.
type wireFrame struct {
	data   []byte
	pooled bool
	sentNs uint64
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// wireTimeNs returns the serialization time of a frame including preamble,
// FCS and inter-frame gap.
func (l *Link) wireTimeNs(frameLen int) uint64 {
	bits := uint64(frameLen+ether.PerFrameOverhead) * 8
	return bits * 1_000_000_000 / lineRateBps
}

// Kick starts (or resumes) forward transmission: it pulls one frame if
// the wire is free and the ring has room. Idempotent.
func (l *Link) Kick() {
	if l.busy {
		return
	}
	if l.dst.RxNearFull(l.RingHeadroom) {
		// Pause: ring nearly full; hold the wire and retry shortly.
		// The in-flight margin guarantees no drops between check and
		// delivery.
		l.stats.PauseEvents++
		l.busy = true
		l.sim.After(pauseRetryNs, (*wireFree)(l))
		return
	}
	frame := l.sender.NextFrame()
	if frame == nil {
		// Window-limited: the sender will Kick when ACKs arrive.
		l.stats.IdleEvents++
		l.releaseIfIdle()
		return
	}
	l.busy = true
	wire := l.wireTimeNs(len(frame))
	sentNs := l.sim.Now() // transmit start: the frame's StageWire boundary
	l.spans.Record(l.spanTrack, "tx", sentNs, wire)
	// Wire becomes free after serialization; the frame lands at the
	// receiver one propagation delay later.
	l.sim.After(wire, (*wireFree)(l))
	l.wire.Push(wireFrame{data: frame, pooled: l.sender.alloc.Pool() != nil, sentNs: sentNs})
	l.sim.After(wire+l.DelayNs, (*arrival)(l))
}

// fire lands the oldest in-flight frame at the receiver edge and runs the
// fault stage on it. A lost frame's buffer goes back to the sender's pool.
func (a *arrival) fire() {
	l := (*Link)(a)
	w, _ := l.wire.Pop()
	l.arrivals++
	switch {
	case l.dropLost():
		l.stats.Lost++
		l.release(w)
	case l.CorruptOneIn > 0 && l.arrivals%l.CorruptOneIn == 0 && len(w.data) > 70:
		w.data[len(w.data)-1] ^= 0x01
		l.stats.Corrupted++
		fallthrough
	default:
		l.reorder(w)
	}
	l.releaseIfIdle()
}

// releaseIfIdle is the wire-idle release. With nothing in flight and the
// sender window-limited, it releases any displaced frame (its reorder
// window cannot fill while the wire idles; holding it would deadlock the
// ACK clock) and flushes the NIC's coalesced interrupt so a burst's tail
// is processed at once (keeping request/response latency flat, §5.4).
func (l *Link) releaseIfIdle() {
	if l.wire.Empty() && !l.busy {
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

// dropLost is the loss verdict for the frame just arrived. Both arms draw
// from splitmix64 over (Loss.Seed, arrivals): the decision depends only on
// the frame's position in this link's delivery order.
func (l *Link) dropLost() bool {
	if !l.Loss.active() {
		return false
	}
	r := splitmix64(l.Loss.Seed ^ (uint64(l.arrivals) * 0x9e3779b97f4a7c15))
	if l.Loss.OneIn > 0 {
		return r%uint64(l.Loss.OneIn) == 0
	}
	// Gilbert-Elliott: transition first, then drop while in the bad
	// state. Mean bad sojourn = 1/q frames = the burst length; the
	// good→bad rate p is solved from the stationary loss fraction
	// f = p/(p+q).
	f := l.Loss.BurstRate
	if f >= 1 {
		return true
	}
	q := 1 / DefaultBurstLossLen
	p := q * f / (1 - f)
	u := float64(r>>11) / (1 << 53)
	if l.lossBad {
		l.lossBad = u >= q
	} else {
		l.lossBad = u < p
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

// reorder hands a frame to the receiver NIC through the reorder
// injector: every Reorder.OneIn-th frame offered while none is withheld is
// withheld and re-injected after Reorder.Distance later frames have been
// delivered.
func (l *Link) reorder(w wireFrame) {
	if l.displaced.data != nil {
		l.deliver(w)
		if l.displaceLeft--; l.displaceLeft <= 0 {
			l.releaseDisplaced()
		}
		return
	}
	if l.Reorder.OneIn > 0 {
		l.reorderCount++
		if l.reorderCount%l.Reorder.OneIn == 0 {
			l.displaced, l.displaceLeft = w, max(l.Reorder.Distance, 1) // 1 = adjacent swap
			return
		}
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

// revPageLen is how many revFrame records one allocation carves.
const revPageLen = 8

// revFrame is one reverse frame in flight, and its own arrival event.
// Reverse frames need not arrive in send order (each departs after its own
// round's CPU time), so unlike the forward FIFO each is a separate event;
// arrived ones are recycled through Link.revFree, linked by next.
type revFrame struct {
	l      *Link
	data   []byte
	pooled bool
	next   *revFrame
}

// DeliverReverse carries a receiver-transmitted frame back to the sender
// after the propagation delay, holding it extraNs longer before it leaves
// the receiver (CPU processing time of the round that produced it). A
// Pooled frame is released by the sender once processed. The frame rides
// a recycled record when one is free, else one carved from the link's
// current page.
func (l *Link) DeliverReverse(f nic.Frame, extraNs uint64) {
	l.stats.ReverseFrames++
	r := l.revFree
	if r != nil {
		l.revFree, r.next = r.next, nil
	} else {
		if len(l.revPage) == 0 {
			l.revPage = make([]revFrame, revPageLen)
		}
		r, l.revPage = &l.revPage[0], l.revPage[1:]
		r.l = l
	}
	r.data, r.pooled = f.Data, f.Pooled
	l.sim.After(extraNs+l.DelayNs, r)
}

// fire hands the frame to the sender and recycles the record.
func (r *revFrame) fire() {
	l, data, pooled := r.l, r.data, r.pooled
	r.data = nil
	r.next, l.revFree = l.revFree, r
	l.sender.receiveReverse(data, pooled)
}
