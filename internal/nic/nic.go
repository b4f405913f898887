// Package nic models the Gigabit Ethernet NICs of the paper's testbed
// (Intel e1000-class): receive/transmit descriptor rings, DMA of frames
// into host memory, receive checksum offload, interrupt throttling, and —
// beyond the paper's single-ring hardware — receive-side scaling: multiple
// receive queues with a Toeplitz flow hash steering each frame to the
// queue that owns its flow, one interrupt vector per queue.
//
// Receive checksum offload is always on, as on the paper's e1000: Receive
// Aggregation is only performed when the NIC has already validated the
// TCP checksum (paper §3.1). Frames the NIC could not validate still
// reach the stack, which then checksums them in software.
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
	"repro/internal/softirq"
	"repro/internal/tcpwire"
)

// rxRingSize is the receive descriptor ring capacity per queue, the
// e1000's 256 descriptors.
const rxRingSize = 256

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

// Config configures a NIC instance.
type Config struct {
	// Name identifies the interface (e.g. "eth0").
	Name string
	// RxQueues is the number of receive queues (0 or 1 = single-queue,
	// the paper's hardware). Frames are steered by Toeplitz hash of the
	// TCP four-tuple; each queue has its own descriptor ring, interrupt
	// state and throttling counter.
	RxQueues int
	// IntThrottleFrames is the interrupt coalescing threshold: an
	// interrupt is asserted after this many frames arrive on a queue
	// while that queue's previous interrupt is unacknowledged
	// (1 = interrupt per frame).
	IntThrottleFrames int
}

// DefaultConfig mirrors the paper's e1000 setup.
func DefaultConfig(name string) Config {
	return Config{
		Name:              name,
		RxQueues:          1,
		IntThrottleFrames: 8,
	}
}

// Stats counts NIC activity.
type Stats struct {
	RxFrames, RxDropped uint64
	TxFrames            uint64
	Interrupts          uint64
	CsumGood, CsumBad   uint64
}

// rxQueue is one receive descriptor ring with its own interrupt vector.
type rxQueue struct {
	ring softirq.Ring[Frame]

	irqPending     bool
	framesSinceIRQ int
}

// NIC is one simulated network interface.
type NIC struct {
	cfg Config
	rxq []rxQueue

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

	stats Stats
}

// New creates a NIC from cfg.
func New(cfg Config) (*NIC, error) {
	if cfg.IntThrottleFrames <= 0 {
		return nil, fmt.Errorf("nic %s: IntThrottleFrames %d must be positive", cfg.Name, cfg.IntThrottleFrames)
	}
	if cfg.RxQueues == 0 {
		cfg.RxQueues = 1
	}
	if cfg.RxQueues < 0 || cfg.RxQueues > rss.Buckets {
		return nil, fmt.Errorf("nic %s: RxQueues %d must be in [1, %d]", cfg.Name, cfg.RxQueues, rss.Buckets)
	}
	n := &NIC{cfg: cfg, rxq: make([]rxQueue, cfg.RxQueues)}
	for q := range n.rxq {
		ring, err := softirq.NewRing[Frame](rxRingSize)
		if err != nil {
			return nil, fmt.Errorf("nic %s: %w", cfg.Name, err)
		}
		n.rxq[q].ring = ring
	}
	return n, nil
}

// Stats returns a copy of the NIC counters.
func (n *NIC) Stats() Stats { return n.stats }

// RxQueues returns the number of receive queues.
func (n *NIC) RxQueues() int { return len(n.rxq) }

// RxQueueLenOn returns the number of frames waiting in queue q's ring.
func (n *NIC) RxQueueLenOn(q int) int { return n.rxq[q].ring.Len() }

// RxNearFull reports whether any queue has fewer than headroom free ring
// slots — the link-level pause condition covering frames in flight. The
// link model uses it to apply pause-frame backpressure instead of
// dropping (ARCHITECTURE.md, "Lossless links: pause instead of drop");
// pause frames stop the whole link, so one full queue pauses the port.
func (n *NIC) RxNearFull(headroom int) bool {
	for q := range n.rxq {
		if n.rxq[q].ring.Len() > rxRingSize-headroom {
			return true
		}
	}
	return false
}

// ReceiveFromWire DMAs a frame into its receive ring, performing checksum
// offload validation and RSS classification in "hardware" (no host CPU
// cycles are charged). It returns false and counts a drop if the target
// ring is full; the frame's buffer then stays the caller's to release.
func (n *NIC) ReceiveFromWire(f Frame) bool {
	hash, hashed, csumOK := n.classify(f.Data)
	q := 0
	if hashed {
		f.RSSHash = hash
		q = rss.QueueOf(hash, len(n.rxq))
	}
	f.RxQueue = q
	f.RxCsumOK = csumOK
	rxq := &n.rxq[q]
	if !rxq.ring.Push(f) {
		n.stats.RxDropped++
		return false
	}
	if csumOK {
		n.stats.CsumGood++
	} else {
		n.stats.CsumBad++
	}
	n.stats.RxFrames++

	rxq.framesSinceIRQ++
	if !rxq.irqPending && rxq.framesSinceIRQ >= n.cfg.IntThrottleFrames {
		n.assertInterrupt(q)
	}
	return true
}

// FlushInterrupt asserts a pending interrupt immediately on every queue
// with waiting frames; the link model calls it when the wire goes idle so
// coalescing never strands frames (work conservation end to end).
func (n *NIC) FlushInterrupt() {
	for q := range n.rxq {
		if !n.rxq[q].irqPending && !n.rxq[q].ring.Empty() {
			n.assertInterrupt(q)
		}
	}
}

func (n *NIC) assertInterrupt(q int) {
	n.rxq[q].irqPending = true
	n.rxq[q].framesSinceIRQ = 0
	n.stats.Interrupts++
	if n.OnInterrupt != nil {
		n.OnInterrupt(q)
	}
}

// AckInterrupt re-arms queue q's interrupt vector; the driver calls it
// when its poll loop drains the ring (NAPI-style).
func (n *NIC) AckInterrupt(q int) {
	rxq := &n.rxq[q]
	rxq.irqPending = false
	if !rxq.ring.Empty() && rxq.framesSinceIRQ >= n.cfg.IntThrottleFrames {
		n.assertInterrupt(q)
	}
}

// PollRxInto removes up to max frames from queue q's ring, appending them
// to dst (reusing its capacity — the driver's per-poll scratch buffer, so
// the hot path allocates nothing once the buffer has grown to the budget).
func (n *NIC) PollRxInto(q, max int, dst []Frame) []Frame {
	return n.rxq[q].ring.PopBatch(dst, max)
}

// Transmit puts a frame on the wire.
func (n *NIC) Transmit(f Frame) {
	n.stats.TxFrames++
	if n.OnTransmit != nil {
		n.OnTransmit(f)
	}
}

// classify performs the hardware parse of an IPv4/TCP frame: IP and TCP
// checksum validation and the Toeplitz steering hash. csumOK reports both
// checksums good. Non-TCP or malformed frames report hashed = false, which
// routes them around aggregation and onto the default queue.
func (n *NIC) classify(frame []byte) (hash uint32, hashed, csumOK bool) {
	if len(frame) < ether.HeaderLen+ipv4.MinHeaderLen {
		return 0, false, false
	}
	eh, err := ether.Parse(frame)
	if err != nil || eh.Type != ether.TypeIPv4 {
		return 0, false, false
	}
	l3 := frame[ether.HeaderLen:]
	ipOK := ipv4.VerifyChecksum(l3)
	ih, err := ipv4.Parse(l3)
	if err != nil || ih.Proto != ipv4.ProtoTCP || ih.IsFragment() {
		return 0, false, false
	}
	seg := frame[ether.HeaderLen+int(ih.IHL) : ether.HeaderLen+int(ih.TotalLen)]
	th, err := tcpwire.Parse(seg)
	if err != nil {
		return 0, false, false
	}
	hash = rss.HashTCP4(ih.Src, ih.Dst, th.SrcPort, th.DstPort)
	return hash, true, ipOK && tcpwire.VerifyChecksum(seg, ih.Src, ih.Dst)
}
