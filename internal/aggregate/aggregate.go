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
	"repro/internal/rss"
	"repro/internal/tcpwire"
)

// Config tunes the engine.
type Config struct {
	// Limit is the Aggregation Limit: the maximum number of network
	// packets coalesced into one aggregated packet (§3.3). A limit of 1
	// disables coalescing but keeps the engine on the path (the §5.5
	// no-degradation check).
	Limit int
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
}

const (
	// tableSize bounds the lookup table of partially aggregated packets
	// (§3.5 describes it as small). When full, the oldest pending
	// aggregate is flushed to make room.
	tableSize = 256
	// reorderWindowBytes bounds the sequence span (gap plus held
	// payload) the resequencing window may cover, the classic maximum
	// TCP window; frames further ahead flush the aggregate as a window
	// overflow.
	reorderWindowBytes = 64 * 1024
)

// DefaultConfig uses the paper's chosen Aggregation Limit of 20 with the
// resequencing window disabled (the paper's strict in-sequence engine).
func DefaultConfig() Config {
	return Config{Limit: 20}
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
	// FlushWindowOverflow counts aggregates closed because an
	// ahead-of-sequence frame could not be held (window slots exhausted,
	// sequence span beyond 64 KiB, or overlap with an already-held
	// frame).
	FlushWindowOverflow uint64

	// Resequencing-window activity. Held counts frames that entered the
	// hold buffer; Stitched those that later joined an aggregate when
	// the gap filled; WindowTimeout those drained undelivered-gap (idle
	// flush, eviction, or a mismatch flush).
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
	key     rss.FlowKey
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
	// waiting for the gap to fill, sorted by sequence number. Always
	// empty when Config.ReorderWindow is 0. Its storage stays with the
	// record through flushes and recycling, so a warm window never
	// allocates.
	held []heldFrame
}

// heldFrame is one eligible data frame with the header fields the engine
// aggregates on, parsed once at Input. A frame parked in the resequencing
// window keeps it, so it stitches into an aggregate, or heads a new one,
// without its headers being parsed again.
type heldFrame struct {
	frame      nic.Frame
	seq, ack   uint32
	win        uint16
	tsVal      uint32
	tsEcr      uint32
	hasTS      bool // timestamp option present
	l4off      int  // TCP header offset within frame.Data
	dataOff    int  // TCP header length
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

// payload returns the frame's TCP payload bytes.
func (h *heldFrame) payload() []byte {
	off := h.l4off + h.dataOff
	return h.frame.Data[off : off+h.payloadLen]
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

	table map[rss.FlowKey]*pending
	// order[head:] is the insertion order for eviction and the flushes;
	// eviction advances head, so the slice keeps its storage, and
	// compactOrder moves the live entries back to the front.
	order []rss.FlowKey
	head  int
	seen  map[rss.FlowKey]bool // compactOrder's scratch, kept empty
	spare []*pending           // delivered pending records, recycled by newPending

	stats Stats
}

// New creates an engine charging m under p.
func New(cfg Config, m *cycles.Meter, p *cost.Params, alloc *buf.Allocator) (*Engine, error) {
	if cfg.Limit <= 0 {
		return nil, fmt.Errorf("aggregate: Limit %d must be positive", cfg.Limit)
	}
	if cfg.ReorderWindow < 0 {
		return nil, fmt.Errorf("aggregate: ReorderWindow %d must be non-negative", cfg.ReorderWindow)
	}
	if m == nil || p == nil || alloc == nil {
		return nil, fmt.Errorf("aggregate: nil dependency")
	}
	return &Engine{
		cfg:    cfg,
		meter:  m,
		params: p,
		alloc:  alloc,
		table:  make(map[rss.FlowKey]*pending, tableSize),
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
	key := rss.FlowKey{Src: ih.Src, Dst: ih.Dst, SrcPort: th.SrcPort, DstPort: th.DstPort}

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

	hf := heldFrame{
		frame: f, seq: th.Seq, ack: th.Ack, win: th.Window,
		tsVal: th.TSVal, tsEcr: th.TSEcr, hasTS: th.HasTimestamp,
		l4off: ether.HeaderLen + ih.IHL, dataOff: th.DataOff,
		payloadLen: ih.TotalLen - ih.IHL - th.DataOff,
	}

	if p, ok := e.table[key]; ok {
		if e.matches(p, &hf) {
			e.attach(p, &hf)
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
		if e.cfg.ReorderWindow > 0 && seqGT(hf.seq, p.nextSeq) &&
			hf.hasTS == p.hasTS && seqGEQ(hf.ack, p.lastAck) {
			if e.tryHold(p, &hf) {
				return
			}
			e.stats.FlushWindowOverflow++
		} else {
			e.stats.FlushMismatch++
		}
		e.finalize(p)
	}
	e.start(key, &hf)
}

// attach appends hf's payload to p's aggregate and advances p's flow
// state to it: the next expected sequence number, and the last ACK,
// window and timestamps that the §3.2 header rewrite copies.
func (e *Engine) attach(p *pending, hf *heldFrame) {
	e.alloc.AttachFrag(p.skb, buf.Frag{Data: hf.payload(), Buf: poolBuf(hf.frame), Ack: hf.ack, TSVal: hf.tsVal})
	p.count++
	p.nextSeq = hf.seq + uint32(hf.payloadLen)
	p.lastAck = hf.ack
	p.lastWin = hf.win
	p.lastTS = hf.tsVal
	p.lastTSE = hf.tsEcr
	e.stats.Coalesced++
}

// tryHold parks an ahead-of-sequence frame in p's resequencing window,
// sorted by sequence number. It fails (false) when the window is out of
// slots, the frame lies beyond the byte span, or it overlaps a frame
// already held — the capacity conditions that flush as WindowOverflow.
// Holding charges one queue touch (the paper's cost model: the frame is
// parked and re-consumed once, with no extra per-packet stack traversal).
func (e *Engine) tryHold(p *pending, hf *heldFrame) bool {
	if len(p.held) >= e.cfg.ReorderWindow {
		return false
	}
	// All arithmetic is on deltas from the expected sequence number:
	// within the (< 2^31) window span, plain comparisons are
	// wraparound-safe.
	start := hf.seq - p.nextSeq
	end := start + uint32(hf.payloadLen)
	if end > reorderWindowBytes {
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
	p.held = append(p.held, heldFrame{})
	copy(p.held[idx+1:], p.held[idx:])
	p.held[idx] = *hf
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
			p.held = append(p.held[:0], p.held[1:]...)
			e.attach(p, &hf)
			e.stats.Stitched++
		}
		if p.count < e.cfg.Limit {
			return // window (if any) keeps waiting for its gap
		}
		// Limit reached. Deliver, detaching the window's contents first
		// so they can outlive the flush when the run continues. held
		// aliases storage that p keeps; nothing writes a window before
		// the next Input, so it stays valid below.
		held := p.held
		nextSeq := p.nextSeq
		key := p.key
		p.held = p.held[:0]
		e.stats.FlushLimit++
		e.finalize(p)
		if len(held) == 0 {
			return
		}
		if held[0].seq != nextSeq {
			// The remaining window is non-contiguous with the flushed
			// run and there is no pending aggregate left to anchor it:
			// drain it in sequence order rather than park it nowhere.
			e.drainHeldSlice(key, held)
			return
		}
		// The run continues: reopen with the next held frame as the new
		// head and keep stitching. The Limit exceeds 1 here (a Limit of 1
		// never keeps a pending aggregate), so start tables the new one.
		head := held[0]
		e.start(key, &head)
		e.stats.Stitched++
		np := e.table[key]
		np.held = append(np.held, held[1:]...)
		p = np
	}
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
func (e *Engine) matches(p *pending, hf *heldFrame) bool {
	if p.count >= e.cfg.Limit {
		return false
	}
	if hf.seq != p.nextSeq {
		return false
	}
	if !seqGEQ(hf.ack, p.lastAck) {
		return false
	}
	if hf.hasTS != p.hasTS {
		return false
	}
	return true
}

// newPending builds the pending-aggregate state seeded by one parsed
// frame. Shared by start and stitchDrainRun so the two construction
// sites cannot drift when pending grows a field.
func (e *Engine) newPending(key rss.FlowKey, hf *heldFrame) *pending {
	f := &hf.frame
	skb := e.alloc.NewData(f.Data, ether.HeaderLen)
	skb.Pooled = f.Pooled
	skb.CsumVerified = true
	skb.RSSHash = f.RSSHash
	skb.FirstAck = hf.ack
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
		nextSeq: hf.seq + uint32(hf.payloadLen),
		lastAck: hf.ack,
		lastWin: hf.win,
		lastTS:  hf.tsVal,
		lastTSE: hf.tsEcr,
		hasTS:   hf.hasTS,
		l4off:   hf.l4off,
		dataOff: hf.dataOff,
		held:    p.held[:0],
	}
	return p
}

// start opens a new pending aggregate seeded with this frame.
func (e *Engine) start(key rss.FlowKey, hf *heldFrame) {
	p := e.newPending(key, hf)
	if e.cfg.Limit == 1 {
		// Degenerate configuration: deliver immediately (§5.5).
		e.stats.FlushLimit++
		e.deliver(p)
		return
	}
	if len(e.table) >= tableSize {
		e.evictOldest()
	}
	if len(e.order) > 4*tableSize {
		e.compactOrder()
	}
	e.table[key] = p
	e.order = append(e.order, key)
}

// compactOrder drops stale entries (keys already flushed) so the order
// slice stays bounded even when the aggregation queue never runs empty.
func (e *Engine) compactOrder() {
	if e.seen == nil {
		e.seen = make(map[rss.FlowKey]bool, tableSize)
	}
	live := e.order[:0]
	for _, k := range e.order[e.head:] {
		if _, ok := e.table[k]; ok && !e.seen[k] {
			e.seen[k] = true
			live = append(live, k)
		}
	}
	clear(e.seen)
	e.order, e.head = live, 0
}

// evictOldest flushes the longest-pending aggregate to bound the table.
func (e *Engine) evictOldest() {
	for e.head < len(e.order) {
		k := e.order[e.head]
		e.head++
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
	for _, k := range e.order[e.head:] {
		if p, ok := e.table[k]; ok {
			e.stats.FlushIdle++
			delete(e.table, k)
			e.deliver(p)
		}
	}
	e.order, e.head = e.order[:0], 0
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
	// conservation, §3.5) or a table eviction.
	if len(p.held) > 0 {
		held := p.held
		p.held = p.held[:0]
		e.drainHeldSlice(p.key, held)
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
func (e *Engine) drainHeldSlice(key rss.FlowKey, held []heldFrame) {
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
			e.stitchDrainRun(key, held[i:j])
		}
		i = j
	}
}

// stitchDrainRun delivers one contiguous held run of flow key as a single
// aggregate: the head frame opens it from its held fields, the rest
// attach as fragments, and the §3.2 header rewrite in deliver makes the
// usual aggregate of it. The per-aggregate overhead is charged by deliver
// like any other flush; the per-frame costs were paid at Input and hold
// time.
func (e *Engine) stitchDrainRun(key rss.FlowKey, run []heldFrame) {
	p := e.newPending(key, &run[0])
	e.stats.WindowTimeout++
	for i := range run[1:] {
		e.attach(p, &run[1+i])
		e.stats.WindowTimeout++
		e.stats.DrainStitched++
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
