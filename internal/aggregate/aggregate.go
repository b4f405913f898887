// Package aggregate implements Receive Aggregation, the paper's first
// optimization (§3): in-sequence TCP packets of the same connection are
// coalesced below the network stack into a single aggregated host packet,
// so the per-packet costs above this layer are paid once per aggregate.
//
// The engine sits at the entry point of softirq network processing. The
// NIC driver (in raw mode) enqueues unmodified frames; the engine performs
// the early demultiplexing — taking the compulsory cache miss the driver
// used to take (§5.1) — applies the §3.1 eligibility rules, and either
// coalesces the frame into a pending aggregate, flushes, or passes the
// frame through untouched.
//
// Eligibility (§3.1): IPv4 TCP, valid IP header checksum (verified here in
// software), TCP checksum already validated by the NIC (receive checksum
// offload — without it no aggregation happens), no IP options, not an IP
// fragment, no TCP flags beyond ACK/PSH, non-empty payload (pure ACKs are
// never aggregated), and either no TCP options or exactly the timestamp
// option. Within a flow, frames must be in sequence by both sequence number
// and acknowledgment number.
//
// Beyond the paper, the engine optionally tolerates the frame reordering
// that interrupt coalescing plus multi-queue steering produces (adjacent
// swaps and small displacements — Wu et al., "Sorting Reordered Packets
// with Interrupt Coalescing"): with Config.ReorderWindow > 0, a same-flow
// frame arriving ahead of the expected sequence number is parked in a
// small per-flow hold buffer and stitched into the aggregate in sequence
// order once the gap fills, instead of tearing the aggregate down. Every
// flush path drains the window in sequence order, so the byte-exact
// in-order delivery guarantee is unchanged, and with the window disabled
// the engine is bit-identical to the paper's strict in-sequence scheme.
package aggregate

import (
	"encoding/binary"
	"fmt"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/nic"
	"repro/internal/tcpwire"
)

// FlowKey identifies a TCP connection as seen by the receiver.
type FlowKey struct {
	Src, Dst         ipv4.Addr
	SrcPort, DstPort uint16
}

// String renders the flow four-tuple.
func (k FlowKey) String() string {
	return fmt.Sprintf("%v:%d->%v:%d", k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Config tunes the engine.
type Config struct {
	// Limit is the Aggregation Limit: the maximum number of network
	// packets coalesced into one aggregated packet (§3.3). A limit of 1
	// disables coalescing but keeps the engine on the path (the §5.5
	// no-degradation check).
	Limit int
	// TableSize bounds the lookup table of partially aggregated packets
	// (§3.5 describes it as small). When full, the oldest pending
	// aggregate is flushed to make room.
	TableSize int
	// ReorderWindow is the per-flow resequencing window: the maximum
	// number of ahead-of-sequence frames held per pending aggregate.
	// Interrupt coalescing plus multi-queue steering reorders
	// near-simultaneous frames (adjacent swaps, small displacements —
	// Wu et al.); instead of tearing the aggregate down on every
	// out-of-sequence frame, a frame arriving ahead of the expected
	// sequence number (and still satisfying the §3.1 flow rules) is held
	// and stitched in once the gap fills, preserving byte-exact in-order
	// delivery. 0 disables the window: every out-of-sequence frame
	// flushes, bit-identical to the original engine.
	ReorderWindow int
	// ReorderWindowBytes bounds the sequence span (gap plus held
	// payload) the window may cover; frames further ahead flush the
	// aggregate as a window overflow. 0 defaults to 64 KiB when the
	// window is enabled.
	ReorderWindowBytes int
}

// DefaultReorderWindowBytes is the default sequence-span bound of the
// resequencing window (the classic maximum TCP window).
const DefaultReorderWindowBytes = 64 * 1024

// DefaultConfig uses the paper's chosen Aggregation Limit of 20 with the
// resequencing window disabled (the paper's strict in-sequence engine).
func DefaultConfig() Config {
	return Config{Limit: 20, TableSize: 256}
}

// Stats counts engine activity and rejection reasons.
type Stats struct {
	FramesIn  uint64 // frames consumed from the aggregation queue
	HostOut   uint64 // host packets delivered to the stack
	Coalesced uint64 // frames that joined an existing aggregate

	FlushLimit    uint64 // aggregates closed by reaching the Limit
	FlushMismatch uint64 // closed by a non-matching same-flow frame
	FlushIdle     uint64 // closed by FlushAll (queue went empty)
	FlushEvict    uint64 // closed by table eviction
	FlushSteer    uint64 // closed by FlushWhere (migration handoff)
	// FlushWindowOverflow counts aggregates closed because an
	// ahead-of-sequence frame could not be held (window slots exhausted,
	// sequence span beyond ReorderWindowBytes, or overlap with an
	// already-held frame).
	FlushWindowOverflow uint64

	// Resequencing-window activity. Held counts frames that entered the
	// hold buffer; Stitched those that later joined an aggregate when
	// the gap filled; WindowTimeout those drained undelivered-gap (idle
	// flush, eviction, migration handoff, or a mismatch flush).
	// Held = Stitched + WindowTimeout + currently-held at all times.
	Held, Stitched, WindowTimeout uint64
	// Drain-time run stitching: contiguous held frames drained together
	// leave as one aggregate instead of one host packet each.
	// FlushHeldDrain counts those aggregates; DrainStitched the frames
	// they absorbed beyond their heads (a subset of WindowTimeout, and
	// counted in Coalesced like any other absorbed frame, preserving
	// FramesIn = HostOut + Coalesced).
	FlushHeldDrain, DrainStitched uint64

	// Pass-through reasons (§3.1 rule failures).
	RejNonIP, RejBadIPCsum, RejNoCsumOffload uint64
	RejIPOptions, RejFragment, RejNotTCP     uint64
	RejFlags, RejOtherOptions, RejZeroLen    uint64
	RejMalformed                             uint64
}

// Add returns the field-wise sum of two stat snapshots (used to combine
// the per-CPU engines of a multi-queue pipeline into one report).
func (s Stats) Add(o Stats) Stats {
	s.FramesIn += o.FramesIn
	s.HostOut += o.HostOut
	s.Coalesced += o.Coalesced
	s.FlushLimit += o.FlushLimit
	s.FlushMismatch += o.FlushMismatch
	s.FlushIdle += o.FlushIdle
	s.FlushEvict += o.FlushEvict
	s.FlushSteer += o.FlushSteer
	s.FlushWindowOverflow += o.FlushWindowOverflow
	s.Held += o.Held
	s.Stitched += o.Stitched
	s.WindowTimeout += o.WindowTimeout
	s.FlushHeldDrain += o.FlushHeldDrain
	s.DrainStitched += o.DrainStitched
	s.RejNonIP += o.RejNonIP
	s.RejBadIPCsum += o.RejBadIPCsum
	s.RejNoCsumOffload += o.RejNoCsumOffload
	s.RejIPOptions += o.RejIPOptions
	s.RejFragment += o.RejFragment
	s.RejNotTCP += o.RejNotTCP
	s.RejFlags += o.RejFlags
	s.RejOtherOptions += o.RejOtherOptions
	s.RejZeroLen += o.RejZeroLen
	s.RejMalformed += o.RejMalformed
	return s
}

// pending is a partially aggregated packet.
type pending struct {
	key     FlowKey
	skb     *buf.SKB
	count   int
	nextSeq uint32 // expected sequence number of the next frame
	lastAck uint32
	lastWin uint16
	lastTS  uint32 // TSVal of the last fragment
	lastTSE uint32 // TSEcr of the last fragment
	hasTS   bool   // header layout: timestamp option present
	l4off   int    // TCP header offset within skb.Head
	dataOff int    // TCP header length

	// held is the flow's resequencing window: ahead-of-sequence frames
	// waiting for the gap to fill, sorted by sequence number. Always nil
	// when Config.ReorderWindow is 0.
	held []heldFrame
}

// heldFrame is one ahead-of-sequence frame parked in the resequencing
// window, with the parsed fields needed to stitch it without re-touching
// the headers.
type heldFrame struct {
	frame      nic.Frame
	seq, ack   uint32
	win        uint16
	tsVal      uint32
	tsEcr      uint32
	payloadOff int // payload start within frame.Data
	payloadLen int
}

// poolBuf returns the frame-pool buffer a fragment taken from f must carry
// so that freeing the aggregate releases it (nil for frames outside the
// pool).
func poolBuf(f nic.Frame) []byte {
	if f.Pooled {
		return f.Data
	}
	return nil
}

// payload returns the held frame's TCP payload bytes.
func (h heldFrame) payload() []byte {
	return h.frame.Data[h.payloadOff : h.payloadOff+h.payloadLen]
}

// Engine is the Receive Aggregation engine for one CPU.
type Engine struct {
	cfg    Config
	meter  *cycles.Meter
	params *cost.Params
	alloc  *buf.Allocator

	// Out delivers host packets (aggregated or passed-through) to the
	// network stack. Must be set before Input is called.
	Out func(*buf.SKB)

	// Clock, when set, supplies the simulated-ns time used to stamp each
	// host packet's aggregation-close boundary (internal/telemetry). It
	// reads the clock only — no charge, no scheduling — so wiring it
	// cannot perturb the run.
	Clock func() uint64

	table map[FlowKey]*pending
	order []FlowKey  // insertion order for eviction and FlushAll
	spare []*pending // delivered pending records, recycled by newPending

	stats Stats
}

// New creates an engine charging m under p.
func New(cfg Config, m *cycles.Meter, p *cost.Params, alloc *buf.Allocator) (*Engine, error) {
	if cfg.Limit <= 0 {
		return nil, fmt.Errorf("aggregate: Limit %d must be positive", cfg.Limit)
	}
	if cfg.TableSize <= 0 {
		return nil, fmt.Errorf("aggregate: TableSize %d must be positive", cfg.TableSize)
	}
	if cfg.ReorderWindow < 0 {
		return nil, fmt.Errorf("aggregate: ReorderWindow %d must be non-negative", cfg.ReorderWindow)
	}
	if cfg.ReorderWindowBytes < 0 {
		return nil, fmt.Errorf("aggregate: ReorderWindowBytes %d must be non-negative", cfg.ReorderWindowBytes)
	}
	if cfg.ReorderWindow > 0 && cfg.ReorderWindowBytes == 0 {
		cfg.ReorderWindowBytes = DefaultReorderWindowBytes
	}
	if m == nil || p == nil || alloc == nil {
		return nil, fmt.Errorf("aggregate: nil dependency")
	}
	return &Engine{
		cfg:    cfg,
		meter:  m,
		params: p,
		alloc:  alloc,
		table:  make(map[FlowKey]*pending, cfg.TableSize),
	}, nil
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// PendingFlows returns the number of partially aggregated packets held.
func (e *Engine) PendingFlows() int { return len(e.table) }

// HeldFrames returns the number of frames currently parked in
// resequencing windows across all pending flows.
func (e *Engine) HeldFrames() int {
	n := 0
	for _, p := range e.table {
		n += len(p.held)
	}
	return n
}

// Input consumes one raw frame from the aggregation queue. This is where
// the early demultiplexing happens: the engine takes the compulsory cache
// miss on the frame header and performs the MAC processing the driver
// skipped (§3.5, §5.1).
func (e *Engine) Input(f nic.Frame) {
	e.stats.FramesIn++
	e.meter.Charge(cycles.Aggr,
		e.params.AggrPerFrame+e.params.MACProcFixed+e.params.Mem.HeaderTouchCost())

	frame := f.Data
	eh, err := ether.Parse(frame)
	if err != nil || eh.Type != ether.TypeIPv4 {
		e.stats.RejNonIP++
		e.passthrough(f)
		return
	}
	l3 := frame[ether.HeaderLen:]
	// §3.1: only the IP header checksum is verified in software; the TCP
	// checksum must have been validated by the NIC.
	if !ipv4.VerifyChecksum(l3) {
		e.stats.RejBadIPCsum++
		e.passthrough(f)
		return
	}
	ih, err := ipv4.Parse(l3)
	if err != nil {
		e.stats.RejMalformed++
		e.passthrough(f)
		return
	}
	if ih.Proto != ipv4.ProtoTCP {
		e.stats.RejNotTCP++
		e.passthrough(f)
		return
	}

	seg := l3[ih.IHL:ih.TotalLen]
	th, err := tcpwire.Parse(seg)
	if err != nil {
		e.stats.RejMalformed++
		e.passthrough(f)
		return
	}
	key := FlowKey{Src: ih.Src, Dst: ih.Dst, SrcPort: th.SrcPort, DstPort: th.DstPort}

	reason := e.eligible(f, &ih, &th)
	if reason != nil {
		*reason++
		// In-order delivery within the flow (§3.1): flush any pending
		// aggregate of this connection before the ineligible frame.
		if p, ok := e.table[key]; ok {
			e.stats.FlushMismatch++
			e.finalize(p)
		}
		e.passthrough(f)
		return
	}

	payloadLen := ih.TotalLen - ih.IHL - th.DataOff
	payload := seg[th.DataOff : th.DataOff+payloadLen]

	if p, ok := e.table[key]; ok {
		if e.matches(p, &th) {
			e.alloc.AttachFrag(p.skb, buf.Frag{Data: payload, Buf: poolBuf(f), Ack: th.Ack, TSVal: th.TSVal})
			p.count++
			p.nextSeq = th.Seq + uint32(payloadLen)
			p.lastAck = th.Ack
			p.lastWin = th.Window
			p.lastTS = th.TSVal
			p.lastTSE = th.TSEcr
			e.stats.Coalesced++
			if len(p.held) > 0 || p.count >= e.cfg.Limit {
				// The frame may have filled the gap in front of the
				// resequencing window: stitch what is now contiguous
				// (and handle the Limit, which can land mid-run).
				e.stitchHeld(p)
			}
			return
		}
		// Same flow, not in sequence. A frame *ahead* of the expected
		// sequence number that still satisfies the §3.1 flow rules is
		// parked in the resequencing window (multi-queue reorder is
		// overwhelmingly adjacent swaps — Wu et al.); everything else
		// (retransmission, ACK regression, option-layout change, window
		// exhausted) delivers the pending aggregate first, then starts
		// fresh with this frame (§3.1 ordering guarantee).
		if e.cfg.ReorderWindow > 0 && seqGT(th.Seq, p.nextSeq) &&
			th.HasTimestamp == p.hasTS && seqGEQ(th.Ack, p.lastAck) {
			if e.tryHold(p, f, &ih, &th, payloadLen) {
				return
			}
			e.stats.FlushWindowOverflow++
		} else {
			e.stats.FlushMismatch++
		}
		e.finalize(p)
	}
	e.start(key, f, &ih, &th, payloadLen)
}

// tryHold parks an ahead-of-sequence frame in p's resequencing window,
// sorted by sequence number. It fails (false) when the window is out of
// slots, the frame lies beyond the byte span, or it overlaps a frame
// already held — the capacity conditions that flush as WindowOverflow.
// Holding charges one queue touch (the paper's cost model: the frame is
// parked and re-consumed once, with no extra per-packet stack traversal).
func (e *Engine) tryHold(p *pending, f nic.Frame, ih *ipv4.Header, th *tcpwire.Header, payloadLen int) bool {
	if len(p.held) >= e.cfg.ReorderWindow {
		return false
	}
	// All arithmetic is on deltas from the expected sequence number:
	// within the (< 2^31) window span, plain comparisons are
	// wraparound-safe.
	start := th.Seq - p.nextSeq
	end := start + uint32(payloadLen)
	if int64(end) > int64(e.cfg.ReorderWindowBytes) {
		return false
	}
	idx := len(p.held)
	for i, h := range p.held {
		hStart := h.seq - p.nextSeq
		hEnd := hStart + uint32(h.payloadLen)
		if start < hEnd && hStart < end {
			return false // overlap: a duplicate or partial retransmission
		}
		if start < hStart {
			idx = i
			break
		}
	}
	hf := heldFrame{
		frame: f, seq: th.Seq, ack: th.Ack, win: th.Window,
		tsVal: th.TSVal, tsEcr: th.TSEcr,
		payloadOff: ether.HeaderLen + ih.IHL + th.DataOff, payloadLen: payloadLen,
	}
	p.held = append(p.held, heldFrame{})
	copy(p.held[idx+1:], p.held[idx:])
	p.held[idx] = hf
	e.stats.Held++
	e.meter.Charge(cycles.Aggr, e.params.NonProtoRawPerFrame)
	return true
}

// stitchHeld folds the resequencing window into p after a gap-filling
// frame advanced nextSeq: held frames now contiguous with the aggregate
// are attached in sequence order. When the Limit lands mid-run the
// aggregate is delivered and the run continues in a fresh pending, so a
// stitched run longer than the Limit costs exactly the same number of
// host packets as an in-order run of that length.
func (e *Engine) stitchHeld(p *pending) {
	for {
		for len(p.held) > 0 && p.count < e.cfg.Limit {
			hf := p.held[0]
			if hf.seq != p.nextSeq {
				break // still a gap in front of the window
			}
			if !seqGEQ(hf.ack, p.lastAck) {
				// ACK regression inside the held run (§3.1): the
				// whole flow state flushes, held remainder drained.
				e.stats.FlushMismatch++
				e.finalize(p)
				return
			}
			p.held = p.held[1:]
			e.alloc.AttachFrag(p.skb, buf.Frag{Data: hf.payload(), Buf: poolBuf(hf.frame), Ack: hf.ack, TSVal: hf.tsVal})
			p.count++
			p.nextSeq = hf.seq + uint32(hf.payloadLen)
			p.lastAck = hf.ack
			p.lastWin = hf.win
			p.lastTS = hf.tsVal
			p.lastTSE = hf.tsEcr
			e.stats.Stitched++
			e.stats.Coalesced++
		}
		if p.count < e.cfg.Limit {
			return // window (if any) keeps waiting for its gap
		}
		// Limit reached. Deliver, detaching the window first so it can
		// outlive the flush when the run continues.
		held := p.held
		nextSeq := p.nextSeq
		key := p.key
		p.held = nil
		e.stats.FlushLimit++
		e.finalize(p)
		if len(held) == 0 {
			return
		}
		if held[0].seq != nextSeq {
			// The remaining window is non-contiguous with the flushed
			// run and there is no pending aggregate left to anchor it:
			// drain it in sequence order rather than park it nowhere.
			e.drainHeldSlice(held)
			return
		}
		// The run continues: reopen with the next held frame as the new
		// head and keep stitching.
		np := e.startHeldFrame(key, held[0])
		if np == nil {
			e.drainHeldSlice(held) // defensive: reparse cannot fail for a held frame
			return
		}
		e.stats.Stitched++
		np.held = held[1:]
		p = np
	}
}

// startHeldFrame opens a new pending aggregate headed by a previously
// held frame (the Limit landed mid-stitch), reparsing its headers.
func (e *Engine) startHeldFrame(key FlowKey, hf heldFrame) *pending {
	l3 := hf.frame.Data[ether.HeaderLen:]
	ih, err := ipv4.Parse(l3)
	if err != nil {
		return nil
	}
	th, err := tcpwire.Parse(l3[ih.IHL:ih.TotalLen])
	if err != nil {
		return nil
	}
	e.start(key, hf.frame, &ih, &th, hf.payloadLen)
	return e.table[key]
}

// eligible applies the §3.1 frame-local rules, returning a pointer to the
// rejection counter to bump, or nil if the frame can aggregate.
func (e *Engine) eligible(f nic.Frame, ih *ipv4.Header, th *tcpwire.Header) *uint64 {
	switch {
	case !f.RxCsumOK:
		// Covers both "NIC lacks receive checksum offload" and "the
		// offload flagged a bad TCP checksum": aggregation is skipped
		// either way and the stack handles validation/drop.
		return &e.stats.RejNoCsumOffload
	case ih.HasOptions():
		return &e.stats.RejIPOptions
	case ih.IsFragment():
		return &e.stats.RejFragment
	case th.Flags&^(tcpwire.FlagACK|tcpwire.FlagPSH) != 0:
		return &e.stats.RejFlags
	case th.OtherOptions:
		return &e.stats.RejOtherOptions
	case ih.TotalLen-ih.IHL-th.DataOff <= 0:
		// Zero-length packets (pure ACKs, duplicate ACKs) are never
		// aggregated (§3.1, §3.6 example 3).
		return &e.stats.RejZeroLen
	}
	return nil
}

// matches reports whether a frame continues the pending aggregate: next in
// sequence, ACK number monotone, and the same options layout (§3.1-3.2).
func (e *Engine) matches(p *pending, th *tcpwire.Header) bool {
	if p.count >= e.cfg.Limit {
		return false
	}
	if th.Seq != p.nextSeq {
		return false
	}
	if !seqGEQ(th.Ack, p.lastAck) {
		return false
	}
	if th.HasTimestamp != p.hasTS {
		return false
	}
	return true
}

// newPending builds the pending-aggregate state seeded by one parsed
// frame. Shared by start and stitchDrainRun so the two construction
// sites cannot drift when pending grows a field.
func (e *Engine) newPending(key FlowKey, f nic.Frame, ih *ipv4.Header, th *tcpwire.Header, payloadLen int) *pending {
	skb := e.alloc.NewData(f.Data, ether.HeaderLen)
	skb.Pooled = f.Pooled
	skb.CsumVerified = true
	skb.RSSHash = f.RSSHash
	skb.FirstAck = th.Ack
	skb.SentNs, skb.ArriveNs, skb.DequeueNs = f.SentNs, f.ArriveNs, f.DequeueNs
	var p *pending
	if n := len(e.spare); n > 0 {
		p = e.spare[n-1]
		e.spare = e.spare[:n-1]
	} else {
		p = new(pending)
	}
	*p = pending{
		key:     key,
		skb:     skb,
		count:   1,
		nextSeq: th.Seq + uint32(payloadLen),
		lastAck: th.Ack,
		lastWin: th.Window,
		lastTS:  th.TSVal,
		lastTSE: th.TSEcr,
		hasTS:   th.HasTimestamp,
		l4off:   ether.HeaderLen + ih.IHL,
		dataOff: th.DataOff,
	}
	return p
}

// start opens a new pending aggregate seeded with this frame.
func (e *Engine) start(key FlowKey, f nic.Frame, ih *ipv4.Header, th *tcpwire.Header, payloadLen int) {
	p := e.newPending(key, f, ih, th, payloadLen)
	if e.cfg.Limit == 1 {
		// Degenerate configuration: deliver immediately (§5.5).
		e.stats.FlushLimit++
		e.deliver(p)
		return
	}
	if len(e.table) >= e.cfg.TableSize {
		e.evictOldest()
	}
	if len(e.order) > 4*e.cfg.TableSize {
		e.compactOrder()
	}
	e.table[key] = p
	e.order = append(e.order, key)
}

// compactOrder drops stale entries (keys already flushed) so the order
// slice stays bounded even when the aggregation queue never runs empty.
func (e *Engine) compactOrder() {
	live := e.order[:0]
	seen := make(map[FlowKey]bool, len(e.table))
	for _, k := range e.order {
		if _, ok := e.table[k]; ok && !seen[k] {
			seen[k] = true
			live = append(live, k)
		}
	}
	e.order = live
}

// evictOldest flushes the longest-pending aggregate to bound the table.
func (e *Engine) evictOldest() {
	for len(e.order) > 0 {
		k := e.order[0]
		e.order = e.order[1:]
		if p, ok := e.table[k]; ok {
			e.stats.FlushEvict++
			delete(e.table, k)
			e.deliver(p)
			return
		}
	}
}

// FlushAll delivers every pending aggregate. The softirq loop calls it the
// moment the aggregation queue runs empty, which is what keeps the scheme
// work-conserving (§3.3, §3.5): packets never wait while the stack idles.
func (e *Engine) FlushAll() {
	for _, k := range e.order {
		if p, ok := e.table[k]; ok {
			e.stats.FlushIdle++
			delete(e.table, k)
			e.deliver(p)
		}
	}
	e.order = e.order[:0]
}

// FlushWhere delivers every pending aggregate whose flow key satisfies
// pred, counting each as a steering flush. The steering control path uses
// it for migration handoff: before a bucket (or a single flow) is
// re-steered to another CPU, the old CPU's partial aggregates for the
// affected flows are drained, so no aggregate can ever merge frames from
// both sides of the migration boundary. It returns the number flushed.
func (e *Engine) FlushWhere(pred func(FlowKey) bool) int {
	n := 0
	for _, k := range e.order {
		if !pred(k) {
			continue
		}
		if p, ok := e.table[k]; ok {
			e.stats.FlushSteer++
			delete(e.table, k)
			e.deliver(p)
			n++
		}
	}
	if n > 0 {
		e.compactOrder()
	}
	return n
}

// finalize removes p from the table and delivers it.
func (e *Engine) finalize(p *pending) {
	delete(e.table, p.key)
	e.deliver(p)
}

// deliver rewrites the aggregate header if needed and hands the host packet
// to the stack. The per-aggregate cost (header rewrite, incremental IP
// checksum, fragment bookkeeping) applies only to real aggregates: a
// single-packet delivery is passed through untouched, which is what keeps
// an Aggregation Limit of 1 cost-neutral versus the baseline (§5.5).
func (e *Engine) deliver(p *pending) {
	skb := p.skb
	if p.count > 1 {
		e.meter.Charge(cycles.Aggr, e.params.AggrPerAggregate)
		e.rewriteHeader(p)
		skb.Aggregated = true
	}
	if e.Clock != nil {
		skb.AggCloseNs = e.Clock()
	}
	e.stats.HostOut++
	if e.Out == nil {
		panic("aggregate: Out not wired")
	}
	e.Out(skb)
	// Any flush of the aggregate also drains its resequencing window —
	// after the aggregate and in sequence order, so the flow's bytes
	// reach the stack exactly as far along as the engine ever saw them.
	// This is what keeps held frames from outliving an idle flush (work
	// conservation, §3.5), a table eviction, or a steering-migration
	// FlushWhere (no held frame may span the migration boundary).
	if len(p.held) > 0 {
		held := p.held
		p.held = nil
		e.drainHeldSlice(held)
	}
	// Delivered: no caller touches p again, so the record is recycled.
	e.spare = append(e.spare, p)
}

// drainHeldSlice delivers parked frames whose gap never filled, in
// sequence order. Contiguous held runs leave as one aggregate — a
// k-distance displacement parks k contiguous successors behind one gap,
// and delivering each as its own host packet would hand the stack (and
// on the paravirtual path, netback/netfront) per-packet cost the window
// existed to avoid. Isolated frames pass through unmodified as before.
// Every drained frame still counts as WindowTimeout (it left the window
// undelivered-gap), so Held = Stitched + WindowTimeout + parked holds;
// run stitching shows up additionally as FlushHeldDrain/DrainStitched.
// The stack's out-of-order queue absorbs the result exactly as it would
// have absorbed the individual frames.
func (e *Engine) drainHeldSlice(held []heldFrame) {
	for i := 0; i < len(held); {
		// Extend the run while frames are exactly consecutive, the ACK
		// stays monotone (§3.1), and the Aggregation Limit admits more.
		j := i + 1
		for j < len(held) && j-i < e.cfg.Limit &&
			held[j].seq == held[j-1].seq+uint32(held[j-1].payloadLen) &&
			seqGEQ(held[j].ack, held[j-1].ack) {
			j++
		}
		if j-i == 1 {
			e.stats.WindowTimeout++
			e.passthrough(held[i].frame)
		} else {
			e.stitchDrainRun(held[i:j])
		}
		i = j
	}
}

// stitchDrainRun delivers one contiguous held run as a single aggregate:
// the head frame's headers are reparsed (hold time kept only the stitch
// fields), the rest attach as fragments, and the §3.2 header rewrite in
// deliver makes the usual aggregate of it. The per-aggregate overhead is
// charged by deliver like any other flush; the per-frame costs were paid
// at Input and hold time.
func (e *Engine) stitchDrainRun(run []heldFrame) {
	head := run[0]
	l3 := head.frame.Data[ether.HeaderLen:]
	ih, err := ipv4.Parse(l3)
	var th tcpwire.Header
	if err == nil {
		th, err = tcpwire.Parse(l3[ih.IHL:ih.TotalLen])
	}
	if err != nil {
		// Defensive: a held frame parsed at hold time, so this cannot
		// happen; degrade to per-frame passthrough rather than drop.
		for _, hf := range run {
			e.stats.WindowTimeout++
			e.passthrough(hf.frame)
		}
		return
	}
	key := FlowKey{Src: ih.Src, Dst: ih.Dst, SrcPort: th.SrcPort, DstPort: th.DstPort}
	p := e.newPending(key, head.frame, &ih, &th, head.payloadLen)
	e.stats.WindowTimeout++
	for _, hf := range run[1:] {
		e.alloc.AttachFrag(p.skb, buf.Frag{Data: hf.payload(), Buf: poolBuf(hf.frame), Ack: hf.ack, TSVal: hf.tsVal})
		p.count++
		p.nextSeq = hf.seq + uint32(hf.payloadLen)
		p.lastAck = hf.ack
		p.lastWin = hf.win
		p.lastTS = hf.tsVal
		p.lastTSE = hf.tsEcr
		e.stats.WindowTimeout++
		e.stats.DrainStitched++
		e.stats.Coalesced++
	}
	e.stats.FlushHeldDrain++
	// p never entered the table and carries no window of its own, so
	// deliver cannot recurse back here.
	e.deliver(p)
}

// rewriteHeader performs the §3.2 rewrite on the head frame in place:
//
//   - IP total length covers all coalesced payload (incremental checksum
//     update, so the IP header stays valid);
//   - TCP ACK number, window and timestamps come from the last fragment;
//   - the TCP checksum is NOT recomputed — the packet is marked as
//     NIC-verified instead, exactly as the paper specifies.
func (e *Engine) rewriteHeader(p *pending) {
	skb := p.skb
	l3 := skb.Head[skb.L3Offset:]
	ihl := p.l4off - skb.L3Offset
	totalPayload := 0
	// Head payload length:
	headIPLen := int(binary.BigEndian.Uint16(l3[2:4]))
	totalPayload += headIPLen - ihl - p.dataOff
	for i := range skb.Frags {
		totalPayload += len(skb.Frags[i].Data)
	}
	if err := ipv4.SetTotalLen(l3, ihl+p.dataOff+totalPayload); err != nil {
		panic(fmt.Sprintf("aggregate: header rewrite: %v", err))
	}
	tcp := skb.Head[p.l4off:]
	binary.BigEndian.PutUint32(tcp[tcpwire.OffAck:], p.lastAck)
	binary.BigEndian.PutUint16(tcp[tcpwire.OffWindow:], p.lastWin)
	if p.hasTS && p.dataOff >= tcpwire.TimestampHeaderLen {
		binary.BigEndian.PutUint32(tcp[tcpwire.OffTSVal:], p.lastTS)
		binary.BigEndian.PutUint32(tcp[tcpwire.OffTSEcr:], p.lastTSE)
	}
}

// passthrough wraps an ineligible frame in an SKB and delivers it
// unmodified (§3.1: no reordering, no modification).
func (e *Engine) passthrough(f nic.Frame) {
	skb := e.alloc.NewData(f.Data, ether.HeaderLen)
	skb.Pooled = f.Pooled
	skb.CsumVerified = f.RxCsumOK
	skb.RSSHash = f.RSSHash
	skb.SentNs, skb.ArriveNs, skb.DequeueNs = f.SentNs, f.ArriveNs, f.DequeueNs
	if e.Clock != nil {
		skb.AggCloseNs = e.Clock()
	}
	e.stats.HostOut++
	if e.Out == nil {
		panic("aggregate: Out not wired")
	}
	e.Out(skb)
}

// seqGEQ is wraparound-safe sequence comparison (a >= b).
func seqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }

// seqGT is wraparound-safe sequence comparison (a > b).
func seqGT(a, b uint32) bool { return int32(a-b) > 0 }
