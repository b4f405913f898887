package tcp

import (
	"fmt"

	"repro/internal/ether"
	"repro/internal/packet"
	"repro/internal/tcpwire"
)

// This file implements the send half of the endpoint: window-limited data
// transmission, Reno congestion control (slow start, congestion avoidance,
// fast retransmit/recovery), and the retransmission timer. The data sender
// in the paper's experiments is the *client* machine, which is not the
// profiled system — but its behaviour (ACK-clocked windows, burst sizes)
// shapes the arrival pattern at the receiver, and the §3.4 congestion
// control correction is only observable through this code.

// SetAppLimit sets the total bytes the application wants to send
// (^uint64(0) for an unbounded stream).
func (e *Endpoint) SetAppLimit(n uint64) { e.appLimited = n }

// AppClose ends the application stream: no bytes beyond those already
// handed to TCP will be offered, and once the in-flight data has been
// handed off a FIN follows — consuming one sequence number, retransmitted
// on loss like data, and completing teardown when the peer's final ACK
// covers it (the teardown half of connection churn workloads).
func (e *Endpoint) AppClose() {
	e.appLimited = uint64(e.sndNxt - iss)
	e.closeReq = true
}

// finPending reports whether the next transmission should be our FIN: the
// application closed, every byte it offered has been handed to TCP, and
// the FIN has not been sent yet.
func (e *Endpoint) finPending() bool {
	return e.closeReq && !e.finSent &&
		e.appLimited != ^uint64(0) && uint64(e.sndNxt-iss) >= e.appLimited
}

// AppWrite makes n more bytes available for sending (request/response
// workloads write incrementally; a fresh endpoint has nothing to send).
func (e *Endpoint) AppWrite(n uint64) {
	if e.appLimited == ^uint64(0) {
		return
	}
	e.appLimited += n
}

// processAck handles one acknowledgment event. Called once per constituent
// network packet of an aggregated segment (§3.4 item 1): k calls for a
// k-fragment aggregate, identical to the unaggregated packet train.
func (e *Endpoint) processAck(ackNum uint32) {
	e.stats.AcksIn++
	switch {
	case seqGT(ackNum, e.sndNxt):
		// Acks data we never sent; ignore (paper's stack would too).
		return
	case seqGT(ackNum, e.sndUna):
		newly := ackNum - e.sndUna
		e.sampleRTT(ackNum)
		e.sndUna = ackNum
		e.rtoBackoff = 0 // Karn: new data acked resets the backoff
		e.popRtx(ackNum)
		e.closeLossEpisode(ackNum)
		if e.finSent && !e.finAcked && seqGEQ(ackNum, e.finSeq+1) {
			e.finAcked = true
		}
		if e.inFastRec {
			if seqGEQ(ackNum, e.recover) {
				// Full recovery: deflate to ssthresh.
				e.inFastRec = false
				e.cwnd = e.ssthresh
				e.dupAcks = 0
			} else {
				// Partial ACK: retransmit next hole.
				e.retransmitOne()
				e.cwnd = maxInt(e.cwnd-int(newly)+e.cfg.MSS, e.cfg.MSS)
			}
			e.armRTO()
			return
		}
		e.dupAcks = 0
		// Reno growth, once per ACK packet — the §3.4 invariant.
		if e.cwnd < e.ssthresh {
			e.cwnd += e.cfg.MSS // slow start
		} else {
			e.cwnd += maxInt(e.cfg.MSS*e.cfg.MSS/e.cwnd, 1) // congestion avoidance
		}
		if e.sndUna == e.sndNxt {
			e.rtoDeadline = 0 // all data acked
		} else {
			e.armRTO()
		}
	case ackNum == e.sndUna && e.sndUna != e.sndNxt:
		// Duplicate ACK with data outstanding.
		e.stats.DupAcksIn++
		e.dupAcks++
		if e.inFastRec {
			e.cwnd += e.cfg.MSS // inflate
			if e.cfg.SACK {
				// Scoreboard-driven hole fill: each dup ACK in recovery
				// may selectively retransmit one further lost segment.
				e.retransmitNextHole()
			}
			return
		}
		if e.dupAcks == 3 {
			// Fast retransmit (RFC 2581).
			e.stats.FastRetransmits++
			e.ssthresh = maxInt(e.flightSize()/2, 2*e.cfg.MSS)
			e.cwnd = e.ssthresh + 3*e.cfg.MSS
			e.inFastRec = true
			e.recover = e.sndNxt
			e.enterLossEpisode(e.recover)
			e.retransmitOne()
			e.armRTO()
		}
	}
}

// sampleRTT feeds the RFC 6298 estimator from the newest segment the
// cumulative ACK fully covers, skipping anything ever retransmitted
// (Karn's algorithm: a retransmitted segment's ACK is ambiguous).
func (e *Endpoint) sampleRTT(ackNum uint32) {
	var sentAt uint64
	for i := range e.rtx {
		s := &e.rtx[i]
		if seqGT(s.seq+s.seqLen(), ackNum) {
			break
		}
		if !s.rexmit && s.sentAt != 0 {
			sentAt = s.sentAt
		}
	}
	if sentAt == 0 {
		return
	}
	r := e.clock() - sentAt
	if r == 0 {
		r = 1
	}
	if e.srttNs == 0 {
		e.srttNs = r
		e.rttvarNs = r / 2
		return
	}
	d := e.srttNs - r
	if r > e.srttNs {
		d = r - e.srttNs
	}
	e.rttvarNs = (3*e.rttvarNs + d) / 4
	e.srttNs = (7*e.srttNs + r) / 8
}

// rtoNs returns the current retransmission timeout: the RFC 6298
// estimate floored at MinRTONs and shifted by the Karn backoff.
func (e *Endpoint) rtoNs() uint64 {
	rto := uint64(MinRTONs)
	if e.srttNs != 0 {
		if est := e.srttNs + 4*e.rttvarNs; est > rto {
			rto = est
		}
	}
	rto <<= e.rtoBackoff
	if rto > MaxRTONs {
		rto = MaxRTONs
	}
	return rto
}

// RTO returns the timeout the next armRTO would use (tests, tools).
func (e *Endpoint) RTO() uint64 { return e.rtoNs() }

// SRTT returns the smoothed RTT estimate in ns (0 = no sample yet).
func (e *Endpoint) SRTT() uint64 { return e.srttNs }

// enterLossEpisode opens (or extends) the recovery-latency episode: the
// clock starts at the first retransmission and the episode ends when the
// cumulative ACK covers target.
func (e *Endpoint) enterLossEpisode(target uint32) {
	if e.recStart != 0 {
		if seqGT(target, e.recEnd) {
			e.recEnd = target
		}
		return
	}
	e.recStart = e.clock()
	e.recEnd = target
	e.stats.RecoveryEvents++
}

// closeLossEpisode ends the open episode once ackNum covers its target,
// accumulating the duration and recording it into the latency collector.
func (e *Endpoint) closeLossEpisode(ackNum uint32) {
	if e.recStart == 0 || !seqGEQ(ackNum, e.recEnd) {
		return
	}
	d := e.clock() - e.recStart
	e.recStart = 0
	e.stats.RecoveryNsSum += d
	if e.recRec != nil {
		e.recRec.RecordRecovery(d)
	}
}

// applySACK marks rtx entries fully covered by the ACK's SACK blocks
// (the scoreboard of RFC 2018/6675). sackedBytes tracks the covered
// sequence space for pipe accounting.
func (e *Endpoint) applySACK(blocks []tcpwire.SACKBlock) {
	e.stats.SACKBlocksIn += uint64(len(blocks))
	for i := range e.rtx {
		s := &e.rtx[i]
		if s.sacked {
			continue
		}
		end := s.seq + s.seqLen()
		for _, b := range blocks {
			if seqGEQ(s.seq, b.Start) && seqLEQ(end, b.End) {
				s.sacked = true
				e.sackedBytes += int(s.seqLen())
				break
			}
		}
	}
}

// retransmitNextHole selectively retransmits the earliest hole the
// scoreboard proves lost: an unsacked entry with sacked data above it
// (the IsLost test of RFC 6675, simplified). An already-retransmitted
// hole becomes eligible again once a full smoothed-RTT window has passed
// since its last transmission — the retransmission itself was then lost
// too, and with the timeout floored at 200 ms waiting for the RTO would
// stall the connection for hundreds of round trips.
func (e *Endpoint) retransmitNextHole() {
	var hi uint32
	has := false
	for i := range e.rtx {
		if e.rtx[i].sacked {
			hi = e.rtx[i].seq + e.rtx[i].seqLen()
			has = true
		}
	}
	if !has {
		return
	}
	for i := range e.rtx {
		s := &e.rtx[i]
		if s.sacked {
			continue
		}
		if seqGEQ(s.seq, hi) {
			return // above the highest sacked byte: not provably lost
		}
		if s.rexmit && (e.srttNs == 0 || e.clock()-s.lastTx <= e.srttNs+4*e.rttvarNs) {
			continue // retransmission still plausibly in flight
		}
		e.stats.SACKRetransmits++
		e.resendSegment(s)
		return
	}
}

// flightSize returns the bytes in flight.
func (e *Endpoint) flightSize() int { return int(e.sndNxt - e.sndUna) }

// SendWindowAvail returns how many payload bytes the window currently
// permits sending. With SACK the flight is the RFC 6675 pipe (sacked
// bytes have left the network), and the first two dup ACKs admit one
// extra segment each (limited transmit, RFC 3042); both terms are zero
// with SACK off, keeping the historical arithmetic bit-identical.
func (e *Endpoint) SendWindowAvail() int {
	wnd := minInt(e.cwnd, e.sndWnd)
	flight := e.flightSize()
	if e.cfg.SACK {
		flight -= e.sackedBytes
		if !e.inFastRec && e.dupAcks > 0 && e.dupAcks < 3 {
			wnd += e.dupAcks * e.cfg.MSS
		}
	}
	avail := wnd - flight
	if avail < 0 {
		return 0
	}
	if e.appLimited != ^uint64(0) {
		if remaining := int64(e.appLimited) - int64(e.sndNxt-iss); remaining < int64(avail) {
			if remaining < 0 {
				return 0
			}
			avail = int(remaining)
		}
	}
	return avail
}

// HasDataToSend reports whether the window admits at least one byte (or a
// pending FIN awaits transmission).
func (e *Endpoint) HasDataToSend() bool { return e.SendWindowAvail() > 0 || e.finPending() }

// NextDataFrame builds the next data frame the window permits, up to
// maxPayload bytes (0 means one MSS), returning nil when the window is
// closed. The frame carries the current cumulative ACK (piggybacked), so
// any pending delayed ACK is satisfied by it. The frame is cut from the
// endpoint allocator's pool when it has one: the caller owns it from here
// and releases it at its end of life (see buf.Allocator.FrameBuf).
func (e *Endpoint) NextDataFrame(maxPayload int) []byte {
	frame, _ := e.nextDataFrame(maxPayload)
	return frame
}

// nextDataFrame is NextDataFrame that also reports whether the frame is a
// pool buffer.
func (e *Endpoint) nextDataFrame(maxPayload int) ([]byte, bool) {
	avail := e.SendWindowAvail()
	if avail <= 0 {
		if e.finPending() {
			return e.buildFinFrame()
		}
		return nil, false
	}
	size := e.cfg.MSS
	if maxPayload > 0 && maxPayload < size {
		size = maxPayload
	}
	if size > avail {
		size = avail
	}
	frame, pooled := e.buildFrame(e.sndNxt, e.rcvNxt, tcpwire.FlagACK|tcpwire.FlagPSH, size, nil)

	if e.cfg.SACK && !e.inFastRec && e.dupAcks > 0 && e.dupAcks < 3 {
		e.stats.LimitedTransmits++
	}
	now := e.clock()
	if cap(e.rtx) == 0 { // first growth: room for every segment the window admits now
		e.rtx = make([]sentSegment, 0, avail/size)
	}
	e.rtx = append(e.rtx, sentSegment{seq: e.sndNxt, length: size, sentAt: now, lastTx: now})
	e.sndNxt += uint32(size)
	e.stats.SegsOut++
	e.stats.BytesOut += uint64(size)
	// Data carries the cumulative ACK: any pending delayed ACK rides it.
	e.ackPending = false
	e.delackSegs = 0
	e.delackArm = 0
	e.armRTO()
	return frame, pooled
}

// buildFinFrame emits our FIN: an empty FIN|ACK segment consuming one
// sequence number, tracked for retransmission like data.
func (e *Endpoint) buildFinFrame() ([]byte, bool) {
	frame, pooled := e.buildFrame(e.sndNxt, e.rcvNxt, tcpwire.FlagACK|tcpwire.FlagFIN, 0, nil)
	now := e.clock()
	e.rtx = append(e.rtx, sentSegment{seq: e.sndNxt, fin: true, sentAt: now, lastTx: now})
	e.finSeq = e.sndNxt
	e.finSent = true
	e.sndNxt++
	e.stats.SegsOut++
	e.stats.FinsOut++
	e.ackPending = false
	e.delackSegs = 0
	e.delackArm = 0
	e.armRTO()
	return frame, pooled
}

// buildFrame is the endpoint's one frame builder: data, retransmission,
// FIN and ACK frames all come through it. It takes a frame buffer from the
// endpoint's allocator, generates payloadLen payload bytes for sequence
// number seq in place (the fill returns their checksum sum in the same
// pass), and serializes the headers from the connection state around them.
// pooled reports that the buffer belongs to the allocator's pool.
func (e *Endpoint) buildFrame(seq, ack uint32, flags uint8, payloadLen int, sack []tcpwire.SACKBlock) (frame []byte, pooled bool) {
	e.ipID++
	spec := packet.TCPSpec{
		SrcIP: e.cfg.LocalIP, DstIP: e.cfg.RemoteIP,
		SrcPort: e.cfg.LocalPort, DstPort: e.cfg.RemotePort,
		Seq: seq, Ack: ack,
		Flags:  flags,
		Window: e.advertisedWindow(),
		HasTS:  true, TSVal: e.tsNow(), TSEcr: e.tsRecent,
		IPID:       e.ipID,
		SACKBlocks: sack,
	}
	hl, err := packet.HeaderLen(&spec)
	if err != nil {
		panic(fmt.Sprintf("tcp: frame build: %v", err))
	}
	frame, pooled = e.alloc.FrameBuf(hl + payloadLen)
	var sum uint16
	if payloadLen > 0 {
		sum = e.cfg.Source(seq, frame[hl:])
	}
	if err := packet.BuildInto(frame, &spec, sum); err != nil {
		panic(fmt.Sprintf("tcp: frame build: %v", err))
	}
	return frame, pooled
}

// SendDataSKB builds the next permitted data frame and wraps it in an SKB
// for in-stack transmission (used by the request/response workload where
// both sides live inside simulated machines).
func (e *Endpoint) SendDataSKB(maxPayload int) bool {
	frame, pooled := e.nextDataFrame(maxPayload)
	if frame == nil {
		return false
	}
	skb := e.alloc.NewData(frame, ether.HeaderLen)
	skb.Pooled = pooled
	e.output(skb)
	return true
}

// popRtx discards retransmit entries fully covered by ackNum (payload
// bytes plus the FIN's sequence number), releasing their scoreboard
// bytes.
func (e *Endpoint) popRtx(ackNum uint32) {
	i := 0
	for ; i < len(e.rtx); i++ {
		if seqGT(e.rtx[i].seq+e.rtx[i].seqLen(), ackNum) {
			break
		}
		if e.rtx[i].sacked {
			e.sackedBytes -= int(e.rtx[i].seqLen())
		}
	}
	// Shift the survivors down rather than reslicing: advancing the start
	// would strand the array's front, and append would keep growing fresh
	// arrays as the list slides along.
	if i > 0 {
		e.rtx = e.rtx[:copy(e.rtx, e.rtx[i:])]
	}
}

// retransmitOne rebuilds and resends the earliest unacknowledged segment
// (a data segment from the application source, or our FIN). With SACK,
// sacked entries are skipped: the earliest hole is what's lost.
func (e *Endpoint) retransmitOne() {
	idx := 0
	if e.cfg.SACK {
		for idx < len(e.rtx) && e.rtx[idx].sacked {
			idx++
		}
	}
	if idx >= len(e.rtx) {
		return
	}
	e.resendSegment(&e.rtx[idx])
}

// resendSegment rebuilds one rtx entry's frame and emits it, marking the
// entry retransmitted (Karn: its future ACK is no longer an RTT sample).
func (e *Endpoint) resendSegment(s *sentSegment) {
	s.rexmit = true
	s.lastTx = e.clock()
	flags := tcpwire.FlagACK | tcpwire.FlagPSH
	if s.fin {
		flags = tcpwire.FlagACK | tcpwire.FlagFIN
		e.stats.FinsOut++
	}
	frame, pooled := e.buildFrame(s.seq, e.rcvNxt, flags, s.length, nil)
	if e.OnRetransmit != nil {
		e.OnRetransmit(frame)
	} else if e.Output != nil {
		skb := e.alloc.NewData(frame, ether.HeaderLen)
		skb.Pooled = pooled
		e.output(skb)
	}
}

// onRTO fires the retransmission timeout: classic Reno collapse. The
// scoreboard is cleared (RFC 2018's conservative post-RTO behaviour —
// the receiver may have reneged) and, under the adaptive estimator, the
// timeout backs off exponentially until new data is acked (Karn).
func (e *Endpoint) onRTO() {
	e.rtoDeadline = 0
	if e.sndUna == e.sndNxt {
		return
	}
	e.stats.RTOs++
	e.ssthresh = maxInt(e.flightSize()/2, 2*e.cfg.MSS)
	e.cwnd = e.cfg.MSS
	e.dupAcks = 0
	e.inFastRec = false
	if e.sackedBytes != 0 || e.cfg.SACK {
		for i := range e.rtx {
			e.rtx[i].sacked = false
			e.rtx[i].rexmit = false
		}
		e.sackedBytes = 0
	}
	if e.rtoBackoff < 12 {
		e.rtoBackoff++
	}
	e.enterLossEpisode(e.sndNxt)
	e.retransmitOne()
	e.armRTO()
}

// armRTO (re)arms the retransmission timer.
func (e *Endpoint) armRTO() {
	e.rtoDeadline = e.clock() + e.rtoNs()
}

// CheckAccounting verifies the send-side bookkeeping invariants the
// property tests pin at checkpoints: the rtx list tiles [sndUna, sndNxt)
// exactly, and sackedBytes equals the summed sequence space of sacked
// entries. Returns a description of the first violation, or "".
func (e *Endpoint) CheckAccounting() string {
	expect := e.sndUna
	sacked := 0
	for i := range e.rtx {
		s := &e.rtx[i]
		if s.seq != expect {
			return fmt.Sprintf("rtx[%d] starts at %d, want %d", i, s.seq, expect)
		}
		expect = s.seq + s.seqLen()
		if s.sacked {
			sacked += int(s.seqLen())
		}
	}
	if expect != e.sndNxt {
		return fmt.Sprintf("rtx ends at %d, sndNxt %d", expect, e.sndNxt)
	}
	if sacked != e.sackedBytes {
		return fmt.Sprintf("sackedBytes %d, scoreboard sum %d", e.sackedBytes, sacked)
	}
	if e.sackedBytes > e.flightSize() {
		return fmt.Sprintf("sackedBytes %d exceeds flight %d", e.sackedBytes, e.flightSize())
	}
	return ""
}
