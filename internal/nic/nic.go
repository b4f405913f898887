// Package nic models the Gigabit Ethernet NICs of the paper's testbed
// (Intel e1000-class): receive/transmit descriptor rings, DMA of frames
// into host memory, receive checksum offload, interrupt throttling, and —
// beyond the paper's single-ring hardware — receive-side scaling: multiple
// receive queues with a Toeplitz flow hash steering each frame to the
// queue that owns its flow, one interrupt vector per queue.
//
// Receive checksum offload matters beyond realism: Receive Aggregation is
// only performed when the NIC has already validated the TCP checksum
// (paper §3.1); if the capability is absent the optimized path must fall
// back to unaggregated delivery.
//
// RSS steering is a pure function of the connection four-tuple
// (internal/rss), so all frames of a flow land on the same queue in
// order; frames the hardware cannot classify (non-IPv4, non-TCP,
// fragments, malformed) fall back to queue 0, exactly as real RSS
// hardware routes unhashable traffic to the default queue. With one queue
// the NIC degenerates to the paper's single-ring device bit for bit.
package nic

import (
	"fmt"

	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/rss"
	"repro/internal/tcpwire"
)

// Frame is an Ethernet frame in host memory (post-DMA on receive).
type Frame struct {
	// Data is the full frame, starting at the Ethernet header.
	Data []byte
	// RxCsumOK reports that the NIC validated the transport checksum
	// (receive checksum offload). Meaningless on transmit.
	RxCsumOK bool
	// Pooled marks Data as a frame-buffer pool buffer (internal/buf.Pool):
	// whoever ends the frame's life — the stack freeing its SKB, a drop,
	// the sender consuming a returned frame — releases it. Hand-built
	// frames leave it false and are never released.
	Pooled bool
	// RSSHash is the Toeplitz hash the NIC computed for the frame's
	// four-tuple, set for every classifiable IPv4/TCP frame regardless
	// of queue count (0 = unclassifiable; the stack's demux then hashes
	// in software).
	RSSHash uint32
	// RxQueue is the receive queue the frame arrived on.
	RxQueue int
	// SentNs/ArriveNs/DequeueNs are the frame's stage-boundary stamps in
	// simulated ns (internal/telemetry): sender transmit start, ring
	// arrival, driver softirq dequeue. They ride the Frame value through
	// ring slots, recorded commands and the raw aggregation queue; zero
	// means unstamped.
	SentNs    uint64
	ArriveNs  uint64
	DequeueNs uint64
}

// Caps describes NIC hardware offload capabilities.
type Caps struct {
	// RxCsumOffload: the NIC verifies TCP/IP checksums on receive.
	RxCsumOffload bool
	// TxCsumOffload: the NIC computes transport checksums on transmit.
	TxCsumOffload bool
}

// Config configures a NIC instance.
type Config struct {
	// Name identifies the interface (e.g. "eth0").
	Name string
	// RxRingSize is the receive descriptor ring capacity per queue.
	RxRingSize int
	// RxQueues is the number of receive queues (0 or 1 = single-queue,
	// the paper's hardware). Frames are steered by Toeplitz hash of the
	// TCP four-tuple; each queue has its own descriptor ring, interrupt
	// state and throttling counter.
	RxQueues int
	// Caps are the hardware offloads.
	Caps Caps
	// IntThrottleFrames is the interrupt coalescing threshold: an
	// interrupt is asserted after this many frames arrive on a queue
	// while that queue's previous interrupt is unacknowledged
	// (1 = interrupt per frame).
	IntThrottleFrames int
	// Indir, when set, is the (shared) RSS indirection table the NIC
	// steers with; nil builds a private round-robin table. A machine
	// shares one Map across its NICs and its flow table so a steering
	// policy re-homes a bucket everywhere with one write.
	Indir *rss.Map
	// FlowRuleSlots bounds the exact-match steering-rule table
	// (Flow-Director/aRFS-class filters); 0 = no rule table, the paper's
	// e1000-class hardware.
	FlowRuleSlots int
}

// DefaultConfig mirrors the paper's e1000 setup.
func DefaultConfig(name string) Config {
	return Config{
		Name:              name,
		RxRingSize:        256,
		RxQueues:          1,
		Caps:              Caps{RxCsumOffload: true, TxCsumOffload: true},
		IntThrottleFrames: 8,
	}
}

// Stats counts NIC activity.
type Stats struct {
	RxFrames, RxDropped uint64
	TxFrames            uint64
	Interrupts          uint64
	CsumGood, CsumBad   uint64
	// Steered counts frames classified by the RSS hash; Unsteered counts
	// frames routed to the default queue because they were unhashable.
	Steered, Unsteered uint64
}

// add accumulates o into s (merging per-queue counter shards).
func (s *Stats) add(o Stats) {
	s.RxFrames += o.RxFrames
	s.RxDropped += o.RxDropped
	s.TxFrames += o.TxFrames
	s.Interrupts += o.Interrupts
	s.CsumGood += o.CsumGood
	s.CsumBad += o.CsumBad
	s.Steered += o.Steered
	s.Unsteered += o.Unsteered
}

// rxQueue is one receive descriptor ring with its own interrupt vector.
// Receive counters live here rather than on the NIC so that, under the
// parallel scheduler, each queue's owning CPU lane can apply recorded ring
// operations without touching any other lane's counters; Stats() sums the
// shards, so totals are identical to the serial single-struct counts.
type rxQueue struct {
	ring []Frame
	head int // next frame the driver will take
	len  int

	irqPending     bool
	framesSinceIRQ int
	rxFrames       uint64
	stats          Stats // receive-side counters for this queue only
}

// NIC is one simulated network interface.
type NIC struct {
	cfg   Config
	rxq   []rxQueue
	indir *rss.Map
	rules map[FlowTuple]*flowRule

	// bucketFrames counts received frames per RSS bucket — the load
	// observation a rebalancing policy steers by.
	bucketFrames [rss.Buckets]uint64
	ruleStats    FlowRuleStats
	// ruleClock is a monotonic touch counter ordering rule installs and
	// hits; using it (rather than a frame count that may tie) as the LRU
	// key keeps eviction order deterministic.
	ruleClock uint64

	// OnInterrupt is invoked with the queue index when a queue asserts
	// its interrupt; the machine uses it to schedule driver processing
	// on the CPU that owns the queue. May be nil.
	OnInterrupt func(queue int)
	// OnTransmit receives frames put on the wire. May be nil (frames
	// are then counted and dropped, useful in unit tests). f.Data is valid
	// only during the call unless the hook takes ownership of it: a hook
	// that keeps a Pooled frame past the call owns its buffer and must
	// release it at the frame's end of life (the simulator's reverse link
	// hands it to the sender machine, which does).
	OnTransmit func(Frame)

	// rec, when non-nil, puts the receive path in recording mode (parallel
	// scheduler): ReceiveFromWire classifies and steers but defers the ring
	// push into a per-queue command stream that the queue's owning CPU lane
	// applies in canonical order. Serial runs never set it.
	rec *Recording

	stats Stats
}

// RxCmd is one recorded receive-path effect: a classified frame awaiting
// its ring push (or, with Flush set, a deferred FlushInterrupt) on queue
// Frame.RxQueue. At/SchedAt are the virtual time and ordering key of the
// link-lane event that produced it; the owning CPU lane merges commands
// with its own events on (At, SchedAt). The TCP checksum is deliberately
// NOT verified at record time: Hashed/IPOK plus the segment bounds carry
// everything Apply needs to verify it lane-side, moving the most expensive
// per-frame computation off the serialising link lane and onto the queue's
// worker.
type RxCmd struct {
	At, SchedAt uint64
	Flush       bool
	Frame       Frame
	Hashed      bool
	IPOK        bool
	SegOff      int // TCP segment bounds within Frame.Data
	SegEnd      int
	Src, Dst    ipv4.Addr
}

// recQueue is the command FIFO for one receive queue. head indexes the
// first unapplied command; pendingPush counts unapplied ring pushes (the
// link's shadow-occupancy bound).
type recQueue struct {
	cmds        []RxCmd
	head        int
	pendingPush int
}

// Recording holds per-queue command streams plus the clock of the link
// lane feeding this NIC (each NIC is fed by exactly one link).
type Recording struct {
	now    func() (at, schedAt uint64)
	queues []recQueue
}

// EnableRecording switches the receive path into recording mode. now must
// report the feeding link lane's current event position.
func (n *NIC) EnableRecording(now func() (at, schedAt uint64)) {
	n.rec = &Recording{now: now, queues: make([]recQueue, len(n.rxq))}
}

// RecPeek returns the ordering key of queue q's next unapplied command.
func (n *NIC) RecPeek(q int) (at, schedAt uint64, ok bool) {
	rq := &n.rec.queues[q]
	if rq.head >= len(rq.cmds) {
		return 0, 0, false
	}
	c := &rq.cmds[rq.head]
	return c.At, c.SchedAt, true
}

// RecApply applies queue q's next command: the deferred half of
// ReceiveFromWire (drop check, checksum verification, counters, ring push,
// interrupt assertion) or a deferred per-queue FlushInterrupt. The caller
// must have established the command's virtual time on the applying lane.
// A frame the full ring rejects is returned with dropped set, so the
// applying lane can release its buffer.
func (n *NIC) RecApply(q int) (rejected Frame, dropped bool) {
	rq := &n.rec.queues[q]
	cmd := &rq.cmds[rq.head]
	rq.head++
	if rq.head == len(rq.cmds) {
		// FIFO drained: recycle the backing array.
		rq.cmds = rq.cmds[:0]
		rq.head = 0
	}
	if cmd.Flush {
		if !n.rxq[q].irqPending && n.rxq[q].len > 0 {
			n.assertInterrupt(q)
		}
		return Frame{}, false
	}
	rq.pendingPush--
	// Deferred checksum offload: pure computation, so verifying here
	// instead of at classify time is invisible to the simulation.
	csumOK := cmd.Hashed && cmd.IPOK &&
		tcpwire.VerifyChecksum(cmd.Frame.Data[cmd.SegOff:cmd.SegEnd], cmd.Src, cmd.Dst)
	if !n.enqueue(cmd.Frame, cmd.Hashed, csumOK) {
		return cmd.Frame, true
	}
	return Frame{}, false
}

// RxNearFullShadow is the recording-mode pause check: ring occupancy plus
// unapplied pushes. It can only overestimate the serial occupancy (drains
// inside the window are unknown), so "not near-full" here proves the
// serial link would have transmitted too.
func (n *NIC) RxNearFullShadow(headroom int) bool {
	for q := range n.rxq {
		if n.rxq[q].len+n.rec.queues[q].pendingPush > len(n.rxq[q].ring)-headroom {
			return true
		}
	}
	return false
}

// New creates a NIC from cfg.
func New(cfg Config) (*NIC, error) {
	if cfg.RxRingSize <= 0 {
		return nil, fmt.Errorf("nic %s: RxRingSize %d must be positive", cfg.Name, cfg.RxRingSize)
	}
	if cfg.IntThrottleFrames <= 0 {
		return nil, fmt.Errorf("nic %s: IntThrottleFrames %d must be positive", cfg.Name, cfg.IntThrottleFrames)
	}
	if cfg.RxQueues == 0 {
		cfg.RxQueues = 1
	}
	if cfg.RxQueues < 0 || cfg.RxQueues > rss.Buckets {
		return nil, fmt.Errorf("nic %s: RxQueues %d must be in [1, %d]", cfg.Name, cfg.RxQueues, rss.Buckets)
	}
	if cfg.FlowRuleSlots < 0 {
		return nil, fmt.Errorf("nic %s: FlowRuleSlots %d must be non-negative", cfg.Name, cfg.FlowRuleSlots)
	}
	n := &NIC{cfg: cfg, rxq: make([]rxQueue, cfg.RxQueues)}
	for q := range n.rxq {
		n.rxq[q].ring = make([]Frame, cfg.RxRingSize)
	}
	n.indir = cfg.Indir
	if n.indir == nil {
		m, err := rss.NewMap(cfg.RxQueues)
		if err != nil {
			return nil, fmt.Errorf("nic %s: %w", cfg.Name, err)
		}
		n.indir = m
	} else if n.indir.Queues() > cfg.RxQueues {
		return nil, fmt.Errorf("nic %s: indirection table spans %d queues, device has %d",
			cfg.Name, n.indir.Queues(), cfg.RxQueues)
	}
	n.rules = make(map[FlowTuple]*flowRule)
	return n, nil
}

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// Stats returns a copy of the NIC counters: the device-level counts plus
// the per-queue receive shards (uint64 sums, so the total is exactly the
// serial single-struct count).
func (n *NIC) Stats() Stats {
	out := n.stats
	for q := range n.rxq {
		out.add(n.rxq[q].stats)
	}
	return out
}

// RxQueues returns the number of receive queues.
func (n *NIC) RxQueues() int { return len(n.rxq) }

// RxQueueLen returns the total number of frames waiting across all
// receive rings.
func (n *NIC) RxQueueLen() int {
	total := 0
	for q := range n.rxq {
		total += n.rxq[q].len
	}
	return total
}

// RxQueueLenOn returns the number of frames waiting in queue q's ring.
func (n *NIC) RxQueueLenOn(q int) int { return n.rxq[q].len }

// RxFramesOn returns the number of frames queue q has received.
func (n *NIC) RxFramesOn(q int) uint64 { return n.rxq[q].rxFrames }

// CanAccept reports whether every receive ring has room for another
// frame. The link model uses it to apply pause-frame backpressure instead
// of dropping (ARCHITECTURE.md, "Lossless links: pause instead of drop");
// pause frames stop the whole link, so one full queue pauses the port.
func (n *NIC) CanAccept() bool { return !n.RxNearFull(1) }

// RxNearFull reports whether any queue has fewer than headroom free ring
// slots — the link-level pause condition covering frames in flight.
func (n *NIC) RxNearFull(headroom int) bool {
	for q := range n.rxq {
		if n.rxq[q].len > len(n.rxq[q].ring)-headroom {
			return true
		}
	}
	return false
}

// ReceiveFromWire DMAs a frame into its receive ring, performing checksum
// offload validation and RSS classification in "hardware" (no host CPU
// cycles are charged). It returns false and counts a drop if the target
// ring is full; the frame's buffer then stays the caller's to release. In
// recording mode the classify/steer half runs now (on the link lane) and
// everything ring-side is recorded for the owning CPU lane; the return
// value is then always true — the link learns of uncertain ring pressure
// through RxNearFullShadow before transmitting, never here (a rejected
// frame comes back from RecApply instead).
func (n *NIC) ReceiveFromWire(f Frame) bool {
	hash, tuple, hashed, ipOK, segOff, segEnd, src, dst := n.classifyLight(f.Data)
	q := 0
	if hashed {
		f.RSSHash = hash
		n.bucketFrames[rss.Bucket(hash)]++
		q = n.steerQueue(tuple, hash)
	}
	f.RxQueue = q
	if n.rec != nil {
		at, schedAt := n.rec.now()
		rq := &n.rec.queues[q]
		rq.cmds = append(rq.cmds, RxCmd{
			At: at, SchedAt: schedAt, Frame: f,
			Hashed: hashed, IPOK: ipOK,
			SegOff: segOff, SegEnd: segEnd, Src: src, Dst: dst,
		})
		rq.pendingPush++
		return true
	}
	csumOK := hashed && ipOK && tcpwire.VerifyChecksum(f.Data[segOff:segEnd], src, dst)
	return n.enqueue(f, hashed, csumOK)
}

// enqueue is the ring-side half of frame receive: drop check, offload
// counters, push, interrupt throttling. f.RxQueue selects the ring.
func (n *NIC) enqueue(f Frame, hashed, csumOK bool) bool {
	q := f.RxQueue
	rxq := &n.rxq[q]
	if rxq.len == len(rxq.ring) {
		rxq.stats.RxDropped++
		return false
	}
	if hashed {
		rxq.stats.Steered++
	} else {
		rxq.stats.Unsteered++
	}
	if n.cfg.Caps.RxCsumOffload {
		f.RxCsumOK = csumOK
		if csumOK {
			rxq.stats.CsumGood++
		} else {
			rxq.stats.CsumBad++
		}
	} else {
		f.RxCsumOK = false
	}
	rxq.ring[(rxq.head+rxq.len)%len(rxq.ring)] = f
	rxq.len++
	rxq.rxFrames++
	rxq.stats.RxFrames++

	rxq.framesSinceIRQ++
	if !rxq.irqPending && rxq.framesSinceIRQ >= n.cfg.IntThrottleFrames {
		n.assertInterrupt(q)
	}
	return true
}

// FlushInterrupt asserts a pending interrupt immediately on every queue
// with waiting frames; the link model calls it when the wire goes idle so
// coalescing never strands frames (work conservation end to end). In
// recording mode the flush is deferred per queue, ordered against the
// recorded ring pushes it must observe.
func (n *NIC) FlushInterrupt() {
	if n.rec != nil {
		at, schedAt := n.rec.now()
		for q := range n.rxq {
			n.rec.queues[q].cmds = append(n.rec.queues[q].cmds,
				RxCmd{At: at, SchedAt: schedAt, Flush: true, Frame: Frame{RxQueue: q}})
		}
		return
	}
	for q := range n.rxq {
		if !n.rxq[q].irqPending && n.rxq[q].len > 0 {
			n.assertInterrupt(q)
		}
	}
}

func (n *NIC) assertInterrupt(q int) {
	n.rxq[q].irqPending = true
	n.rxq[q].framesSinceIRQ = 0
	n.rxq[q].stats.Interrupts++
	if n.OnInterrupt != nil {
		n.OnInterrupt(q)
	}
}

// AckInterrupt re-arms queue q's interrupt vector; the driver calls it
// when its poll loop drains the ring (NAPI-style).
func (n *NIC) AckInterrupt(q int) {
	rxq := &n.rxq[q]
	rxq.irqPending = false
	if rxq.len > 0 && rxq.framesSinceIRQ >= n.cfg.IntThrottleFrames {
		n.assertInterrupt(q)
	}
}

// PollRx removes up to max frames from queue 0 (single-queue driver side).
func (n *NIC) PollRx(max int) []Frame { return n.PollRxOn(0, max) }

// PollRxOn removes up to max frames from queue q's ring (driver side).
func (n *NIC) PollRxOn(q, max int) []Frame {
	return n.PollRxInto(q, max, nil)
}

// PollRxInto removes up to max frames from queue q's ring, appending them
// to dst (reusing its capacity — the driver's per-poll scratch buffer, so
// the hot path allocates nothing once the buffer has grown to the budget).
func (n *NIC) PollRxInto(q, max int, dst []Frame) []Frame {
	rxq := &n.rxq[q]
	if max <= 0 || rxq.len == 0 {
		return dst
	}
	take := max
	if take > rxq.len {
		take = rxq.len
	}
	for i := 0; i < take; i++ {
		dst = append(dst, rxq.ring[rxq.head])
		rxq.ring[rxq.head] = Frame{}
		rxq.head = (rxq.head + 1) % len(rxq.ring)
	}
	rxq.len -= take
	return dst
}

// Transmit puts a frame on the wire.
func (n *NIC) Transmit(f Frame) {
	n.stats.TxFrames++
	if n.OnTransmit != nil {
		n.OnTransmit(f)
	}
}

// CountTxFrame records a transmitted frame without invoking OnTransmit.
// The parallel scheduler's mailbox commit uses it: the frame's delivery is
// scheduled explicitly with the captured ordering key, but the counter
// must still advance exactly once per wire frame.
func (n *NIC) CountTxFrame() { n.stats.TxFrames++ }

// classifyLight performs the hardware parse of an IPv4/TCP frame: IP
// checksum validation, the Toeplitz steering hash and the four-tuple (for
// exact-match rule lookup), in one pass over the headers. The TCP checksum
// — a walk over the whole payload, by far the most expensive step — is NOT
// verified here; callers combine hashed && ipOK with
// tcpwire.VerifyChecksum over the returned segment bounds, either inline
// (serial) or deferred to the applying CPU lane (recording mode). Non-TCP
// or malformed frames report hashed = false, which routes them around
// aggregation and onto the default queue.
func (n *NIC) classifyLight(frame []byte) (hash uint32, tuple FlowTuple, hashed, ipOK bool, segOff, segEnd int, src, dst ipv4.Addr) {
	if len(frame) < ether.HeaderLen+ipv4.MinHeaderLen {
		return 0, tuple, false, false, 0, 0, src, dst
	}
	eh, err := ether.Parse(frame)
	if err != nil || eh.Type != ether.TypeIPv4 {
		return 0, tuple, false, false, 0, 0, src, dst
	}
	l3 := frame[ether.HeaderLen:]
	ipOK = ipv4.VerifyChecksum(l3)
	ih, err := ipv4.Parse(l3)
	if err != nil || ih.Proto != ipv4.ProtoTCP || ih.IsFragment() {
		return 0, tuple, false, false, 0, 0, src, dst
	}
	segOff = ether.HeaderLen + int(ih.IHL)
	segEnd = ether.HeaderLen + int(ih.TotalLen)
	th, err := tcpwire.Parse(frame[segOff:segEnd])
	if err != nil {
		return 0, tuple, false, false, 0, 0, src, dst
	}
	tuple = FlowTuple{Src: ih.Src, Dst: ih.Dst, SrcPort: th.SrcPort, DstPort: th.DstPort}
	hash = rss.HashTCP4(ih.Src, ih.Dst, th.SrcPort, th.DstPort)
	return hash, tuple, true, ipOK, segOff, segEnd, ih.Src, ih.Dst
}
