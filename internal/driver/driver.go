// Package driver implements the NAPI-style network device driver of the
// simulated receive path.
//
// One Driver instance services one receive queue of one NIC (NewQueue);
// a multi-queue RSS NIC therefore has one driver per queue, each polled
// from the softirq context of the CPU that owns the queue — the per-queue
// NAPI model of multi-queue Linux drivers. Queue 0 of a single-queue
// NIC is the paper's original whole-device driver.
//
// The driver runs in two modes mirroring the paper:
//
//   - Baseline: for every received frame the driver allocates an sk_buff,
//     performs MAC header processing (taking the compulsory cache miss on
//     the just-DMAed header), and hands the SKB to the network stack — the
//     stock Linux behaviour profiled in §2.2.
//
//   - Raw: the driver enqueues raw frames into the per-CPU aggregation
//     queue without touching their headers and without allocating sk_buffs
//     (§3.5). Both the MAC processing and its cache miss move into the
//     aggregation routine, and the sk_buff is allocated only for the final
//     aggregated packet.
//
// On the transmit side the driver implements the device half of
// Acknowledgment Offload (§4.2): an ACK-template SKB is expanded into the
// individual ACK packets, patching the ACK number and IP ID and updating
// both checksums incrementally.
package driver

import (
	"fmt"

	"repro/internal/ackoff"
	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ether"
	"repro/internal/nic"
)

// Mode selects the driver's receive delivery path.
type Mode int

const (
	// ModeBaseline delivers one SKB per frame to the stack.
	ModeBaseline Mode = iota
	// ModeRaw delivers raw frames to the aggregation queue.
	ModeRaw
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeRaw:
		return "raw"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Driver drives one receive queue of one NIC (and can transmit on the
// device, which is queue-agnostic).
type Driver struct {
	nic    *nic.NIC
	queue  int
	mode   Mode
	meter  *cycles.Meter
	params *cost.Params
	alloc  *buf.Allocator

	// DeliverSKB receives per-frame SKBs in baseline mode.
	DeliverSKB func(*buf.SKB)
	// DeliverRaw receives raw frames in raw mode; it returns false if
	// the aggregation queue is full (the frame is then dropped, as a
	// real driver would when the backlog overflows).
	DeliverRaw func(nic.Frame) bool
	// StampClock, when set, supplies the simulated-ns time used to stamp
	// each polled frame's softirq-dequeue boundary (internal/telemetry).
	// Stamping reads the clock only — it charges nothing and schedules
	// nothing, so wiring it cannot perturb the run.
	StampClock func() uint64

	// scratch is the reusable poll buffer (hot path: one PollRxInto slice
	// allocation per poll otherwise).
	scratch []nic.Frame
	// expanded holds one ACK template's expansions between building them
	// and putting them on the wire (reused across templates).
	expanded []nic.Frame
}

// NewQueue creates a driver for receive queue q of n charging m under p.
func NewQueue(n *nic.NIC, q int, mode Mode, m *cycles.Meter, p *cost.Params, alloc *buf.Allocator) *Driver {
	if n == nil || m == nil || p == nil || alloc == nil {
		panic("driver: nil dependency")
	}
	if q < 0 || q >= n.RxQueues() {
		panic(fmt.Sprintf("driver: queue %d out of range [0, %d)", q, n.RxQueues()))
	}
	return &Driver{nic: n, queue: q, mode: mode, meter: m, params: p, alloc: alloc}
}

// Poll drains up to budget frames from the driver's receive queue,
// charging driver costs and delivering each frame according to the mode.
// It returns the number of frames processed and re-arms the queue's
// interrupt vector when the ring is empty.
func (d *Driver) Poll(budget int) int {
	d.scratch = d.nic.PollRxInto(d.queue, budget, d.scratch[:0])
	frames := d.scratch
	for _, f := range frames {
		// Per-frame driver work: descriptor writeback handling and
		// ring bookkeeping. The descriptor is a cold random line.
		d.meter.Charge(cycles.Driver,
			d.params.DriverRxFixed+d.params.Mem.RandomTouchCost(d.params.DriverDescLines))
		// Packet-memory management happens per frame in both modes.
		d.alloc.ChargeFrameBuf()
		if d.StampClock != nil {
			f.DequeueNs = d.StampClock()
		}

		switch d.mode {
		case ModeBaseline:
			// MAC header processing touches the cold header.
			d.meter.Charge(cycles.Driver,
				d.params.MACProcFixed+d.params.Mem.HeaderTouchCost())
			skb := d.alloc.NewData(f.Data, ether.HeaderLen)
			skb.Pooled = f.Pooled
			skb.CsumVerified = f.RxCsumOK
			skb.RSSHash = f.RSSHash
			skb.SentNs, skb.ArriveNs, skb.DequeueNs = f.SentNs, f.ArriveNs, f.DequeueNs
			if d.DeliverSKB != nil {
				d.DeliverSKB(skb)
			} else {
				d.alloc.Free(skb)
			}
		case ModeRaw:
			// Raw handoff: queue production cost only; header
			// untouched (the compulsory miss is deferred to the
			// aggregation routine).
			d.meter.Charge(cycles.NonProto, d.params.NonProtoRawPerFrame)
			if d.DeliverRaw == nil || !d.DeliverRaw(f) {
				// Backlog overflow: the frame dies here.
				if f.Pooled {
					d.alloc.Release(f.Data)
				}
			}
		}
	}
	if d.nic.RxQueueLenOn(d.queue) == 0 {
		d.nic.AckInterrupt(d.queue)
	}
	return len(frames)
}

// Transmit sends an outgoing SKB. Ordinary packets go straight to the NIC.
// ACK-template SKBs (TemplateAcks non-nil) are expanded here: the template
// frame is sent as the first ACK, then one patched copy per recorded ACK
// number (§4.2), each cut from the allocator's frame pool. The SKB is freed
// after transmission; its frame buffer goes to the wire with the frame.
func (d *Driver) Transmit(skb *buf.SKB) {
	frame := skb.Head
	// Expand before anything leaves: once on the wire the template frame
	// belongs to the link.
	d.expanded = d.expanded[:0]
	for i, ack := range skb.TemplateAcks {
		cp, pooled := d.alloc.FrameBuf(len(frame))
		if err := ackoff.ExpandTo(cp, frame, skb.L3Offset, i, ack); err != nil {
			panic(fmt.Sprintf("driver: ack expansion: %v", err))
		}
		d.expanded = append(d.expanded, nic.Frame{Data: cp, Pooled: pooled})
	}

	d.meter.Charge(cycles.Driver, d.params.DriverTxPerPacket)
	d.nic.Transmit(nic.Frame{Data: frame, Pooled: skb.Pooled})
	skb.Pooled = false // the wire owns the buffer now
	for i, f := range d.expanded {
		d.meter.Charge(cycles.Driver,
			d.params.AckExpandPerAck+d.params.DriverTxPerPacket)
		d.nic.Transmit(f)
		d.expanded[i] = nic.Frame{}
	}
	d.alloc.Free(skb)
}
