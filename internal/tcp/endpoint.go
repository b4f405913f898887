// Package tcp implements the TCP endpoints of the simulated stack: the
// receive path the paper optimizes, the ACK generation policy (one ACK per
// two full segments, RFC 1122 delayed ACK), and the sender side (Reno
// congestion control, retransmission) that closes the control loop.
//
// The §3.4 modifications are implemented here:
//
//  1. Congestion control: when a host packet represents several network
//     packets, the send-side state is advanced once per constituent ACK
//     number (Segment.FragAcks), not once per host packet, so the
//     congestion window evolves exactly as without aggregation.
//
//  2. ACK generation: the receive side counts constituent segments, not
//     host packets, so an aggregate of k segments still produces k/2 ACKs.
//     With Acknowledgment Offload enabled those ACKs leave the TCP layer
//     as a single template SKB (§4); otherwise they are emitted
//     individually.
package tcp

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/tcpwire"
	"repro/internal/telemetry"
)

// Clock supplies virtual time in nanoseconds.
type Clock func() uint64

// DataSource fills b with the payload bytes for sequence range
// [seq, seq+len(b)) and returns their checksum.Sum, accumulated as it
// writes, so a data frame's payload is generated and checksummed in one
// pass (sim.PatternPayloadSum). It lets the retransmit path rebuild any
// segment without buffering sent data; the default source writes zeros.
// It must write every byte of b: frame buffers are recycled.
type DataSource func(seq uint32, b []byte) uint16

// Config describes one endpoint of an established connection. The
// simulation starts connections in the established state: connection setup
// is not on the paper's measured path.
type Config struct {
	LocalIP, RemoteIP     ipv4.Addr
	LocalPort, RemotePort uint16
	// MSS is the maximum segment payload (1448 with timestamps on
	// Ethernet). Every segment carries the timestamp option, which
	// Receive Aggregation requires (§3.1).
	MSS int
	// DelAckSegments is the full-segment count that triggers an ACK
	// (2 per RFC 1122 and §3.4).
	DelAckSegments int
	// AckOffload emits ACK runs as template SKBs (§4).
	AckOffload bool
	// SACK enables selective acknowledgments (RFC 2018): the receive
	// side generates up to three blocks from the out-of-order queue,
	// the send side keeps a scoreboard over the retransmission list
	// (selective retransmission, limited transmit, pipe accounting).
	SACK bool
	// Source generates payload bytes for transmission.
	Source DataSource
}

// MinRTONs is the retransmission timeout's floor (Linux's 200 ms). The
// endpoint runs the Jacobson/Karn estimator (RFC 6298): srtt/rttvar from
// RTT samples of never-retransmitted segments, exponential backoff on
// repeated RTOs, and this floor — which is also the effective timeout
// whenever the measured RTT is far below it, as on every clean-link
// golden.
const MinRTONs = 200_000_000

// MaxRTONs caps the exponentially backed-off timeout.
const MaxRTONs = 120_000_000_000

// Every endpoint shares these Linux-2.6.16-like settings.
const (
	// rcvWnd is the advertised receive window in bytes.
	rcvWnd = 87380
	// wScale is the window-scale shift both sides agreed on during the
	// (unsimulated) handshake; Linux 2.6.16 negotiates it by default,
	// and without it the 64 KB window cap stalls Gigabit streams.
	wScale = 2
	// delAckTimeoutNs flushes a pending ACK that never reached the
	// segment threshold: 40 ms.
	delAckTimeoutNs = 40_000_000
	// initialCwnd is the initial congestion window in segments.
	initialCwnd = 10
	// iss and irs are the initial local and remote sequence numbers.
	iss, irs = 1, 1
)

// DefaultConfig returns a config with Linux-2.6.16-like defaults for the
// given four-tuple.
func DefaultConfig() Config {
	return Config{
		MSS:            1448,
		DelAckSegments: 2,
	}
}

// Stats counts endpoint activity.
type Stats struct {
	SegsIn, SegsOut   uint64
	BytesIn, BytesOut uint64
	BytesToApp        uint64
	AcksOut           uint64
	AckPacketsOut     uint64
	AckTemplatesOut   uint64
	DupSegs, OOOSegs  uint64
	// OOOPeak is the high-water mark of the out-of-order queue in
	// segments — the OOO-queue pressure signal the receive-side
	// resequencing window is meant to relieve.
	OOOPeak          uint64
	BadCsum          uint64
	AcksIn           uint64
	DupAcksIn        uint64
	FastRetransmits  uint64
	RTOs             uint64
	DelAckTimerFires uint64
	FinsOut          uint64 // FIN transmissions (including retransmits)
	FinsIn           uint64 // FIN-flagged segments processed

	// SACK / loss-recovery counters (zero unless Config.SACK or loss).
	SACKBlocksOut    uint64 // SACK blocks emitted on outgoing ACKs
	SACKBlocksIn     uint64 // SACK blocks processed from peer ACKs
	SACKRetransmits  uint64 // scoreboard hole retransmissions
	LimitedTransmits uint64 // RFC 3042 probe segments on 1st/2nd dup ACK
	RecoveryEvents   uint64 // loss episodes entered (fast rtx or RTO)
	RecoveryNsSum    uint64 // summed episode durations, virtual ns
}

// Add returns the counter totals of s and o. OOOPeak, a high-water mark,
// takes the larger of the two.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		SegsIn:           s.SegsIn + o.SegsIn,
		SegsOut:          s.SegsOut + o.SegsOut,
		BytesIn:          s.BytesIn + o.BytesIn,
		BytesOut:         s.BytesOut + o.BytesOut,
		BytesToApp:       s.BytesToApp + o.BytesToApp,
		AcksOut:          s.AcksOut + o.AcksOut,
		AckPacketsOut:    s.AckPacketsOut + o.AckPacketsOut,
		AckTemplatesOut:  s.AckTemplatesOut + o.AckTemplatesOut,
		DupSegs:          s.DupSegs + o.DupSegs,
		OOOSegs:          s.OOOSegs + o.OOOSegs,
		OOOPeak:          max(s.OOOPeak, o.OOOPeak),
		BadCsum:          s.BadCsum + o.BadCsum,
		AcksIn:           s.AcksIn + o.AcksIn,
		DupAcksIn:        s.DupAcksIn + o.DupAcksIn,
		FastRetransmits:  s.FastRetransmits + o.FastRetransmits,
		RTOs:             s.RTOs + o.RTOs,
		DelAckTimerFires: s.DelAckTimerFires + o.DelAckTimerFires,
		FinsOut:          s.FinsOut + o.FinsOut,
		FinsIn:           s.FinsIn + o.FinsIn,
		SACKBlocksOut:    s.SACKBlocksOut + o.SACKBlocksOut,
		SACKBlocksIn:     s.SACKBlocksIn + o.SACKBlocksIn,
		SACKRetransmits:  s.SACKRetransmits + o.SACKRetransmits,
		LimitedTransmits: s.LimitedTransmits + o.LimitedTransmits,
		RecoveryEvents:   s.RecoveryEvents + o.RecoveryEvents,
		RecoveryNsSum:    s.RecoveryNsSum + o.RecoveryNsSum,
	}
}

type oooSegment struct {
	seq    uint32
	data   []byte
	pooled bool // data is a frame-pool buffer, released once drained
}

type sentSegment struct {
	seq    uint32
	length int
	fin    bool   // the segment carries FIN (consumes one sequence number)
	sentAt uint64 // first-transmit time (RTT sampling; Karn-invalid once rexmit)
	lastTx uint64 // most recent transmit time (scoreboard re-retransmit pacing)
	rexmit bool   // retransmitted at least once (excluded from RTT samples)
	sacked bool   // covered by a peer SACK block (scoreboard state)
}

// seqLen returns the sequence-number space the segment occupies: its
// payload plus one for FIN (RFC 793 §3.3).
func (s sentSegment) seqLen() uint32 { return uint32(s.length) + boolToSeq(s.fin) }

func boolToSeq(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Endpoint is one side of an established TCP connection.
type Endpoint struct {
	cfg    Config
	meter  *cycles.Meter
	params *cost.Params
	alloc  *buf.Allocator
	clock  Clock

	// Output transmits an SKB toward the IP layer. Must be set before
	// any traffic flows.
	Output func(*buf.SKB)
	// AppSink, when set, receives the in-order byte stream (tests and
	// examples); when nil payload bytes are counted but not copied out.
	// The slice is valid only during the call: it points into a frame
	// buffer that is recycled once the segment's SKB is freed, so a sink
	// that keeps bytes must copy them.
	AppSink func([]byte)
	// OnRetransmit, when set, receives retransmitted frames as raw bytes
	// instead of SKBs through Output (used by sender machines that feed
	// a link directly). The callee owns the frame, which is a buffer of the
	// endpoint allocator's pool when it has one.
	OnRetransmit func([]byte)

	// Receive state.
	rcvNxt      uint32
	tsRecent    uint32
	ooo         []oooSegment
	delackSegs  int
	ackPending  bool
	delackArm   uint64 // virtual deadline, 0 = unarmed
	pendingAcks []uint32
	finSeen     bool
	rcvMSSEst   int // estimate of the peer's effective send MSS
	lastRunLen  int // previous sub-estimate run length (shrink detector)
	// sackBlocks is the receive-side SACK block list in RFC 2018 order
	// (most recently changed first), maintained from the OOO queue and
	// pruned as rcvNxt advances.
	sackBlocks []tcpwire.SACKBlock

	// Send state.
	sndUna, sndNxt uint32
	cwnd, ssthresh int
	sndWnd         int
	dupAcks        int
	inFastRec      bool
	recover        uint32
	rtx            []sentSegment
	rtoDeadline    uint64
	appLimited     uint64 // bytes the app wants to send; ^uint64(0) = unlimited
	ipID           uint16
	sackedBytes    int // sequence space of sacked rtx entries (pipe accounting)

	// RTO state: RFC 6298 smoothed estimator.
	srttNs, rttvarNs uint64
	rtoBackoff       uint // Karn exponential backoff exponent

	// Loss-episode state: recStart is the virtual time of the episode's
	// first retransmission (0 = no episode open), recEnd the sequence
	// whose cumulative coverage ends it.
	recStart uint64
	recEnd   uint32
	recRec   *telemetry.Collector // recovery-latency recorder (may be nil)

	// Teardown state (FIN handshake, churn workloads).
	closeReq bool   // application requested close (AppClose)
	finSent  bool   // our FIN has been transmitted at least once
	finAcked bool   // the peer acknowledged our FIN
	finSeq   uint32 // sequence number the FIN consumed

	// latRec/latClock, when wired (SetLatencyRecorder), record each
	// data-carrying host packet's stage stamps at app-delivery time into
	// the run's latency collector. latClock is the run's stamp clock —
	// deliberately separate from e.clock, whose value feeds TCP
	// timestamps and timers and must not change when telemetry is
	// enabled.
	latRec   *telemetry.Collector
	latClock Clock

	stats Stats
}

// New creates an endpoint charging m under p, allocating from alloc, and
// reading virtual time from clock.
func New(cfg Config, m *cycles.Meter, p *cost.Params, alloc *buf.Allocator, clock Clock) (*Endpoint, error) {
	e := new(Endpoint)
	if err := e.Reset(cfg, m, p, alloc, clock); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset turns e into the endpoint New(cfg, m, p, alloc, clock) would
// create, keeping only the storage of its retransmission, out-of-order,
// pending-ACK and SACK-block slices, so a torn-down connection's endpoint
// can carry the next one without allocating. Every other field, the
// Output, AppSink and OnRetransmit hooks and the telemetry recorders
// included, is reset. Queued out-of-order copies are dropped, not released
// to the pool, just as dropping the old endpoint would drop them. On a bad
// config e is left untouched.
func (e *Endpoint) Reset(cfg Config, m *cycles.Meter, p *cost.Params, alloc *buf.Allocator, clock Clock) error {
	if m == nil || p == nil || alloc == nil || clock == nil {
		return fmt.Errorf("tcp: nil dependency")
	}
	if cfg.MSS <= 0 || cfg.MSS > 65000 {
		return fmt.Errorf("tcp: bad MSS %d", cfg.MSS)
	}
	if cfg.DelAckSegments <= 0 {
		return fmt.Errorf("tcp: bad DelAckSegments %d", cfg.DelAckSegments)
	}
	if cfg.Source == nil {
		cfg.Source = zeroSource
	}
	clear(e.ooo)
	*e = Endpoint{
		cfg:         cfg,
		meter:       m,
		params:      p,
		alloc:       alloc,
		clock:       clock,
		rcvNxt:      irs,
		sndUna:      iss,
		sndNxt:      iss,
		cwnd:        initialCwnd * cfg.MSS,
		ssthresh:    1 << 30,
		sndWnd:      rcvWnd,
		rcvMSSEst:   cfg.MSS,
		rtx:         e.rtx[:0],
		ooo:         e.ooo[:0],
		pendingAcks: e.pendingAcks[:0],
		sackBlocks:  e.sackBlocks[:0],
	}
	return nil
}

// zeroSource is the default DataSource: zero payload bytes.
func zeroSource(seq uint32, b []byte) uint16 {
	clear(b)
	return 0
}

// Quiescent reports whether nothing the endpoint holds can change without
// new input: no timer is armed and no out-of-order data is queued. A
// torn-down endpoint that is quiescent can be retired and reused.
func (e *Endpoint) Quiescent() bool { return e.NextTimeout() == 0 && len(e.ooo) == 0 }

// Stats returns a copy of the endpoint counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// RcvNxt returns the next expected receive sequence number.
func (e *Endpoint) RcvNxt() uint32 { return e.rcvNxt }

// SndUna returns the oldest unacknowledged sequence number.
func (e *Endpoint) SndUna() uint32 { return e.sndUna }

// SndNxt returns the next send sequence number.
func (e *Endpoint) SndNxt() uint32 { return e.sndNxt }

// Cwnd returns the congestion window in bytes.
func (e *Endpoint) Cwnd() int { return e.cwnd }

// Closed reports whether the peer's FIN has been processed.
func (e *Endpoint) Closed() bool { return e.finSeen }

// FinAcked reports whether our own FIN has been acknowledged (the sender
// half of teardown is complete).
func (e *Endpoint) FinAcked() bool { return e.finAcked }

// SetLatencyRecorder wires per-packet stage-latency recording: every
// data-carrying host packet delivered to this endpoint records its stamp
// chain (wire → ring → softirq → aggregation → stack → socket read) into
// rec, reading the app-read boundary from clock, the stamp clock every
// other stage boundary reads. Recording is observation only — it charges
// no cycles and schedules nothing.
func (e *Endpoint) SetLatencyRecorder(rec *telemetry.Collector, clock Clock) {
	e.latRec = rec
	e.latClock = clock
}

// tsNow returns the TCP timestamp clock value: milliseconds of virtual
// time, the 1000 Hz granularity of the paper's §3.6 argument.
func (e *Endpoint) tsNow() uint32 { return uint32(e.clock() / 1_000_000) }

// Input processes one host packet delivered by the IP layer. It charges
// the TCP receive-processing costs, advances send-side state once per
// constituent ACK, accepts or queues payload, and generates ACKs under the
// modified §3.4 policy. The segment's SKB, if any, is freed before return.
func (e *Endpoint) Input(seg Segment) {
	e.stats.SegsIn += uint64(maxInt(seg.NetPackets, 1))

	// TCP receive processing: fixed per host packet plus the §3.4
	// per-fragment bookkeeping, plus SMP locking (§2.3).
	e.meter.Charge(cycles.Rx, e.params.TCPRxSegment+e.params.LockCost(e.params.RxLockOps))
	if seg.NetPackets > 1 {
		e.meter.Charge(cycles.Rx, uint64(seg.NetPackets)*e.params.TCPRxPerFrag)
	}

	hdr := seg.Hdr

	// Send-side processing: one ACK event per constituent network packet
	// (§3.4 item 1). FragAcks is never empty for well-formed segments.
	acks := seg.FragAcks
	if len(acks) == 0 {
		acks = []uint32{hdr.Ack}
	}
	if hdr.Flags&tcpwire.FlagACK != 0 {
		// Scoreboard first (RFC 6675): the dup-ACK handling below sees
		// the blocks this very ACK carried.
		if e.cfg.SACK && len(hdr.SACKBlocks()) > 0 {
			e.applySACK(hdr.SACKBlocks())
		}
		for _, a := range acks {
			e.processAck(a)
		}
		// Peer window update: for aggregates this is the last
		// fragment's advertised window (§3.2 rewrite).
		e.sndWnd = int(hdr.Window) << wScale
	}

	// Timestamp echo state (in-order packets only; §3.2 keeps the last
	// fragment's timestamp, which is what we see here).
	if hdr.HasTimestamp && seqLEQ(hdr.Seq, e.rcvNxt) {
		e.tsRecent = hdr.TSVal
	}

	if hdr.Flags&tcpwire.FlagRST != 0 {
		e.finSeen = true
		e.freeSegSKB(seg)
		return
	}

	total := seg.TotalPayloadLen()
	if total > 0 {
		e.receiveData(&seg)
		if e.latRec != nil && seg.SKB != nil {
			skb := seg.SKB
			e.latRec.RecordStamps(skb.SentNs, skb.ArriveNs, skb.DequeueNs,
				skb.AggCloseNs, skb.StackInNs, e.latClock())
		}
	}

	if hdr.Flags&tcpwire.FlagFIN != 0 {
		e.stats.FinsIn++
		finSeq := hdr.Seq + uint32(total)
		switch {
		case finSeq == e.rcvNxt:
			e.rcvNxt++
			e.finSeen = true
			e.queueAck(e.rcvNxt)
		case seqLT(finSeq, e.rcvNxt):
			// Retransmitted FIN (our final ACK was lost): re-ACK so the
			// peer's teardown completes instead of retransmitting forever.
			e.queueAck(e.rcvNxt)
		}
	}

	e.flushAcks()
	e.freeSegSKB(seg)
}

// receiveData handles the payload runs of a data segment. Each constituent
// run is processed exactly as if its network packet had arrived alone —
// the §3.4 requirement that aggregation not change protocol behaviour.
// (An aggregate can legitimately start with a retransmitted segment the
// receiver already has: the engine only checks continuity, not the
// receiver's window.)
func (e *Endpoint) receiveData(seg *Segment) {
	s := seg.Hdr.Seq
	for _, run := range seg.Payloads {
		if len(run) == 0 {
			continue
		}
		e.receiveRun(s, run)
		s += uint32(len(run))
	}
}

// measureRcvMSS tracks the peer's effective send MSS from arriving payload
// run lengths (Linux's tcp_measure_rcv_mss). Without it a small-message
// sender stalls: sub-MSS runs never count as "full segments" for the
// delayed-ACK threshold, so the only ACKs are 40 ms timer fires and the
// sender sits window-limited in between. A run at least as large as the
// current estimate confirms (or raises) it; two consecutive equal runs
// below the estimate mean the peer is a small-message sender and shrink
// the estimate to that message size — a lone short run (a window-limited
// tail of an MSS stream) never does. Only in-order new data is measured:
// a lost-ACK tail retransmitted at the same size must not masquerade as
// a small-message stream.
func (e *Endpoint) measureRcvMSS(runLen int) {
	switch {
	case runLen >= e.rcvMSSEst:
		e.rcvMSSEst = minInt(runLen, e.cfg.MSS)
	case runLen == e.lastRunLen:
		e.rcvMSSEst = runLen
	}
	e.lastRunLen = runLen
}

// receiveRun applies per-segment receive processing to one payload run.
func (e *Endpoint) receiveRun(seq uint32, run []byte) {
	end := seq + uint32(len(run))
	switch {
	case seq == e.rcvNxt:
		// In order: measure the peer's segment size, deliver, count
		// toward the ACK policy, and drain any out-of-order data this
		// makes contiguous.
		e.measureRcvMSS(len(run))
		e.deliverToApp(run)
		e.rcvNxt = end
		e.countSegmentForAck(len(run), e.rcvNxt)
		e.drainOOO()
	case seqLT(seq, e.rcvNxt):
		if seqLEQ(end, e.rcvNxt) {
			// Entirely duplicate: immediate dup-ACK (RFC 5681).
			e.stats.DupSegs++
			e.queueAck(e.rcvNxt)
			return
		}
		// Partially duplicate: trim the old prefix, accept the rest
		// (RFC 793 §3.9 trimming).
		e.stats.DupSegs++
		trimmed := run[e.rcvNxt-seq:]
		e.deliverToApp(trimmed)
		e.rcvNxt = end
		e.countSegmentForAck(len(trimmed), e.rcvNxt)
		e.drainOOO()
	default:
		// Future data: queue and dup-ACK (fast-retransmit trigger
		// for the peer).
		e.stats.OOOSegs++
		e.queueOOO(seq, [][]byte{run})
		e.queueAck(e.rcvNxt)
	}
}

// deliverToApp hands one payload run to the application, charging the
// per-byte copy (the paper's dominant historical cost, §2.1). The copy is
// charged per run because each run is a separate sequential stream for the
// prefetcher.
func (e *Endpoint) deliverToApp(run []byte) {
	e.meter.Charge(cycles.PerByte, e.params.CopyFixed+e.params.Mem.CopyCost(len(run)))
	e.stats.BytesIn += uint64(len(run))
	e.stats.BytesToApp += uint64(len(run))
	if e.AppSink != nil {
		e.AppSink(run)
	}
}

// countSegmentForAck advances the delayed-ACK state after one constituent
// segment whose last byte is cumAck; a full-segment count reaching the
// threshold queues an ACK for the bytes received so far (§3.4 item 2).
// "Full" is relative to the measured peer MSS (measureRcvMSS), so a
// small-message sender still gets an ACK every DelAckSegments messages;
// data below even that estimate arms the delayed-ACK timer without
// counting.
func (e *Endpoint) countSegmentForAck(runLen int, cumAck uint32) {
	e.ackPending = true
	if runLen >= e.rcvMSSEst {
		e.delackSegs++
	}
	if e.delackSegs >= e.cfg.DelAckSegments {
		e.delackSegs = 0
		e.ackPending = false
		e.queueAck(cumAck)
		e.delackArm = 0
		return
	}
	if e.delackArm == 0 {
		e.delackArm = e.clock() + delAckTimeoutNs
	}
}

// queueAck records an ACK to be emitted by flushAcks. Consecutive ACKs for
// the same connection queued in one Input call are exactly the batch that
// Acknowledgment Offload turns into a template (§4.3).
func (e *Endpoint) queueAck(ackNum uint32) {
	e.pendingAcks = append(e.pendingAcks, ackNum)
}

// flushAcks emits the queued ACKs: as one template SKB under ACK offload,
// or as individual ACK packets otherwise. TCP-layer transmit costs are
// charged here; IP/queue/driver costs accrue further down the stack.
func (e *Endpoint) flushAcks() {
	if len(e.pendingAcks) == 0 {
		return
	}
	acks := e.pendingAcks
	e.pendingAcks = e.pendingAcks[:0]
	e.stats.AcksOut += uint64(len(acks))

	if e.cfg.AckOffload && len(acks) > 1 {
		// Build one template: the first ACK packet plus the remaining
		// ACK numbers (§4.2).
		e.meter.Charge(cycles.Tx, e.params.TCPMakeAck+
			uint64(len(acks)-1)*e.params.AckTemplatePerAck+
			e.params.LockCost(e.params.TxLockOps))
		skb := e.buildAck(acks[0])
		skb.SetTemplateAcks(acks[1:])
		e.stats.AckTemplatesOut++
		e.stats.AckPacketsOut += uint64(len(acks))
		e.output(skb)
		return
	}
	for _, a := range acks {
		e.meter.Charge(cycles.Tx, e.params.TCPMakeAck+e.params.LockCost(e.params.TxLockOps))
		e.stats.AckPacketsOut++
		e.output(e.buildAck(a))
	}
}

// buildAck constructs a pure-ACK frame SKB. With SACK enabled and
// out-of-order data queued, the ACK carries up to tcpwire.MaxSACKBlocks
// blocks in RFC 2018 order.
func (e *Endpoint) buildAck(ackNum uint32) *buf.SKB {
	var sack []tcpwire.SACKBlock
	if e.cfg.SACK && len(e.sackBlocks) > 0 {
		e.pruneSACK()
		if n := minInt(len(e.sackBlocks), tcpwire.MaxSACKBlocks); n > 0 {
			sack = e.sackBlocks[:n]
			e.stats.SACKBlocksOut += uint64(n)
		}
	}
	frame, pooled := e.buildFrame(e.sndNxt, ackNum, tcpwire.FlagACK, 0, sack)
	skb := e.alloc.NewAck(frame, ether.HeaderLen)
	skb.Pooled = pooled
	return skb
}

// noteSACK merges the newly queued out-of-order range [start, end) into
// the SACK block list: overlapping or adjacent blocks coalesce and the
// result moves to the front (RFC 2018 most-recent-first ordering). The
// list is bounded — blocks beyond the advertisable set plus one spare
// are dropped from the tail.
func (e *Endpoint) noteSACK(start, end uint32) {
	if !e.cfg.SACK {
		return
	}
	nb := tcpwire.SACKBlock{Start: start, End: end}
	keep := e.sackBlocks[:0]
	for _, b := range e.sackBlocks {
		if seqLEQ(b.Start, nb.End) && seqLEQ(nb.Start, b.End) {
			// Overlapping or touching: absorb into the new block.
			if seqLT(b.Start, nb.Start) {
				nb.Start = b.Start
			}
			if seqGT(b.End, nb.End) {
				nb.End = b.End
			}
			continue
		}
		keep = append(keep, b)
	}
	e.sackBlocks = append(keep, tcpwire.SACKBlock{}) // grow by one
	copy(e.sackBlocks[1:], e.sackBlocks[:len(e.sackBlocks)-1])
	e.sackBlocks[0] = nb
	if len(e.sackBlocks) > tcpwire.MaxSACKBlocks+1 {
		e.sackBlocks = e.sackBlocks[:tcpwire.MaxSACKBlocks+1]
	}
}

// pruneSACK drops blocks the advancing cumulative ACK has covered.
func (e *Endpoint) pruneSACK() {
	keep := e.sackBlocks[:0]
	for _, b := range e.sackBlocks {
		if seqLEQ(b.End, e.rcvNxt) {
			continue
		}
		if seqLT(b.Start, e.rcvNxt) {
			b.Start = e.rcvNxt
		}
		keep = append(keep, b)
	}
	e.sackBlocks = keep
}

// SetRecoveryRecorder wires sender-side loss-recovery latency recording:
// each completed loss episode (first retransmission → cumulative ACK
// covering everything outstanding at entry) records its duration into
// rec. Observation only — episode tracking itself always runs (it feeds
// Stats.RecoveryNsSum), so enabling the recorder changes no other state.
func (e *Endpoint) SetRecoveryRecorder(rec *telemetry.Collector) { e.recRec = rec }

// advertisedWindow returns the scaled window field value.
func (e *Endpoint) advertisedWindow() uint16 {
	w := rcvWnd >> wScale
	return uint16(minInt(w, 0xffff))
}

// output delivers an SKB to the stack, panicking if unwired: dropping
// ACKs silently would deadlock the simulation.
func (e *Endpoint) output(skb *buf.SKB) {
	if e.Output == nil {
		panic("tcp: endpoint Output not wired")
	}
	e.stats.SegsOut++
	e.Output(skb)
}

// queueOOO inserts payload runs into the out-of-order queue, recording
// each range in the SACK block list.
func (e *Endpoint) queueOOO(seq uint32, runs [][]byte) {
	s := seq
	for _, run := range runs {
		if len(run) == 0 {
			continue
		}
		cp, pooled := e.alloc.FrameBuf(len(run))
		copy(cp, run)
		e.insertOOO(oooSegment{seq: s, data: cp, pooled: pooled})
		e.noteSACK(s, s+uint32(len(run)))
		s += uint32(len(run))
	}
}

// insertOOO keeps the queue sorted by sequence number, dropping exact
// duplicates.
func (e *Endpoint) insertOOO(seg oooSegment) {
	i := len(e.ooo)
	for j, q := range e.ooo {
		if seg.seq == q.seq {
			e.releaseOOO(seg)
			return
		}
		if seqLT(seg.seq, q.seq) {
			i = j
			break
		}
	}
	e.ooo = append(e.ooo, oooSegment{})
	copy(e.ooo[i+1:], e.ooo[i:])
	e.ooo[i] = seg
	e.notePeakOOO()
}

// releaseOOO ends the life of a queued copy.
func (e *Endpoint) releaseOOO(seg oooSegment) {
	if seg.pooled {
		e.alloc.Release(seg.data)
	}
}

// notePeakOOO tracks the out-of-order queue's high-water mark.
func (e *Endpoint) notePeakOOO() {
	if n := uint64(len(e.ooo)); n > e.stats.OOOPeak {
		e.stats.OOOPeak = n
	}
}

// drainOOO delivers queued segments made contiguous by new in-order data.
func (e *Endpoint) drainOOO() {
	for len(e.ooo) > 0 {
		q := e.ooo[0]
		if seqGT(q.seq, e.rcvNxt) {
			return
		}
		// Shift rather than reslice, so the queue keeps its storage.
		e.ooo = e.ooo[:copy(e.ooo, e.ooo[1:])]
		if end := q.seq + uint32(len(q.data)); seqGT(end, e.rcvNxt) {
			skip := e.rcvNxt - q.seq // overlap with already-received bytes
			run := q.data[skip:]
			e.deliverToApp(run)
			e.rcvNxt += uint32(len(run))
			e.countSegmentForAck(len(run), e.rcvNxt)
		}
		e.releaseOOO(q)
	}
}

// freeSegSKB releases the segment's SKB, if it carries one.
func (e *Endpoint) freeSegSKB(seg Segment) {
	if seg.SKB != nil {
		e.alloc.Free(seg.SKB)
	}
}

// NextTimeout returns the earliest virtual deadline (delayed ACK or RTO)
// or 0 when no timer is armed.
func (e *Endpoint) NextTimeout() uint64 {
	d := e.delackArm
	if e.rtoDeadline != 0 && (d == 0 || e.rtoDeadline < d) {
		d = e.rtoDeadline
	}
	return d
}

// OnTimeout fires any timers whose deadline has passed at virtual time now.
func (e *Endpoint) OnTimeout(now uint64) {
	if e.delackArm != 0 && now >= e.delackArm {
		e.delackArm = 0
		if e.ackPending {
			e.ackPending = false
			e.delackSegs = 0
			e.stats.DelAckTimerFires++
			e.queueAck(e.rcvNxt)
			e.flushAcks()
		}
	}
	if e.rtoDeadline != 0 && now >= e.rtoDeadline {
		e.onRTO()
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
