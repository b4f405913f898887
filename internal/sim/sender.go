package sim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/buf"
	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/packet"
	"repro/internal/softirq"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

// SenderMachine is one client machine of the testbed: it owns the sender
// endpoints of the connections carried by one link. Its CPU is not the
// system under test, so its endpoints charge a scrap meter that is never
// reported; what matters is its *traffic shape* — ACK-clocked windows, and
// round-robin interleaving with a TSO-like quantum when several
// connections share the link (this is what bounds the achievable
// aggregation factor in the Figure 12 scalability experiment).
type SenderMachine struct {
	sim     *Sim
	meter   cycles.Meter // scrap: sender cost is out of scope
	params  cost.Params
	alloc   *buf.Allocator
	quantum int

	// MaxPayload caps data segments below the MSS (0 = full MSS).
	MaxPayload int

	// SACK enables selective acknowledgments on every new connection.
	SACK bool

	// RecoveryRec, when set, records each connection's loss-episode
	// durations into the run's latency collector.
	RecoveryRec *telemetry.Collector

	conns   []*senderConn
	byPort  map[uint16]*senderConn
	free    []*senderConn // removed conns, reset and reused by addConn
	slab    []connRecord  // reserved records no conn has used yet
	store   tcp.Storage   // the connection storage every record is bound to
	connCfg tcp.Config    // addConn's scratch config
	rrIdx   int
	rrLeft  int
	pending softirq.Ring[[]byte] // unbounded: retransmissions and pure-ACK frames awaiting the link

	// Per-frame scratch for ReceiveFrame's segment view (the endpoint only
	// ranges over both during Input).
	fragAcks [1]uint32
	payloads [1][]byte

	paceWait uint64    // soonest wait of a conn held back by pacing this NextFrame (noPaceWait: none)
	wakeAt   uint64    // deadline of the armed pacing wake (0 = none)
	wakeSeq  uint64    // invalidates superseded wake events
	wakeFree *paceWake // fired wake records, a free list scheduleWake reuses

	// OnWindowOpen is invoked when an ACK arrival may have opened a
	// window (the link uses it to resume pulling).
	OnWindowOpen func()

	// retransmitFn and outputFn are retransmit and output, bound once:
	// every connection's endpoint hooks point at them.
	retransmitFn func([]byte)
	outputFn     func(*buf.SKB)
}

type senderConn struct {
	ep        *tcp.Endpoint
	localPort uint16

	// rateBps, when positive, caps this connection's offered rate with a
	// token bucket (the skewed many-flow workload); zero = unpaced.
	rateBps    float64
	allowance  float64
	lastRefill uint64
}

// connRecord is the storage of one connection: its record and the
// endpoint the record points at, allocated together.
type connRecord struct {
	conn senderConn
	ep   tcp.Endpoint
}

// senderBurstBytes caps a paced connection's token bucket: the largest
// back-to-back burst a paced flow may emit after idling.
const senderBurstBytes = 64 * 1024

// paceFrameBytes is the wire cost a paced conn must afford before it may
// emit a frame (one MSS-sized frame plus per-frame overhead).
const paceFrameBytes = 14 + 20 + 32 + 1448 + ether.PerFrameOverhead

// noPaceWait marks SenderMachine.paceWait empty: no conn was held back.
const noPaceWait = ^uint64(0)

// paceWait returns the virtual ns until the paced conn can afford its
// next frame at its rate.
func (c *senderConn) paceWait() uint64 {
	need := paceFrameBytes - c.allowance
	return uint64(need * 8e9 / c.rateBps)
}

// refill adds rate-proportional allowance for the time since the last
// refill, capped at the burst size.
func (c *senderConn) refill(now uint64) {
	if now <= c.lastRefill {
		return
	}
	c.allowance += float64(now-c.lastRefill) * c.rateBps / 8e9
	if c.allowance > senderBurstBytes {
		c.allowance = senderBurstBytes
	}
	c.lastRefill = now
}

// NewSender creates a sender machine with the given interleave quantum
// (frames sent from one connection before rotating; 0 uses the default).
func NewSender(s *Sim, quantum int) *SenderMachine {
	if quantum <= 0 {
		quantum = DefaultSenderQuantum
	}
	m := &SenderMachine{
		sim:      s,
		params:   cost.NativeUP(),
		quantum:  quantum,
		byPort:   make(map[uint16]*senderConn),
		paceWait: noPaceWait,
	}
	m.alloc = buf.NewAllocator(&m.meter, &m.params)
	m.retransmitFn, m.outputFn = m.retransmit, m.output
	return m
}

// DefaultSenderQuantum mirrors a TSO-sized send quantum: a sender with an
// open window emits runs of about this many segments before the link
// rotates to another connection.
const DefaultSenderQuantum = 12

// AddStreamConn creates a sender endpoint with an unbounded stream to send.
func (m *SenderMachine) AddStreamConn(localIP, remoteIP ipv4.Addr, localPort, remotePort uint16) (*tcp.Endpoint, error) {
	ep, err := m.addConn(localIP, remoteIP, localPort, remotePort)
	if err != nil {
		return nil, err
	}
	ep.SetAppLimit(^uint64(0))
	return ep, nil
}

// AddConn creates a sender endpoint with nothing to send yet (use AppWrite).
func (m *SenderMachine) AddConn(localIP, remoteIP ipv4.Addr, localPort, remotePort uint16) (*tcp.Endpoint, error) {
	return m.addConn(localIP, remoteIP, localPort, remotePort)
}

// PatternPayload is the deterministic byte source every sim sender
// transmits: byte at absolute sequence s is a fixed mix of s. Receivers
// (tests) can therefore verify end-to-end that the delivered stream is
// the in-order original — across aggregation, ACK offload and
// retransmission — without buffering a reference copy.
func PatternPayload(seq uint32, b []byte) {
	PatternPayloadSum(seq, b)
}

// PatternPayloadSum is PatternPayload that also returns checksum.Sum of
// the bytes it wrote, accumulated in the same pass (a tcp.DataSource): the
// sender's data frames are generated and checksummed without reading the
// payload back. It writes the pattern eight bytes at a time — byte i is the
// top byte of (seq+i)*2654435761, and consecutive products differ by that
// constant — and sums the big-endian words as it stores them.
func PatternPayloadSum(seq uint32, b []byte) uint16 {
	k := uint32(2654435761) // Knuth multiplicative mix; products wrap mod 2^32
	x := seq * k
	var acc, carry uint64
	for len(b) >= 8 {
		w := uint64(x>>24)<<56 |
			uint64((x+k)>>24)<<48 |
			uint64((x+2*k)>>24)<<40 |
			uint64((x+3*k)>>24)<<32 |
			uint64((x+4*k)>>24)<<24 |
			uint64((x+5*k)>>24)<<16 |
			uint64((x+6*k)>>24)<<8 |
			uint64((x+7*k)>>24)
		binary.BigEndian.PutUint64(b, w)
		acc, carry = bits.Add64(acc, w, carry)
		x += 8 * k
		b = b[8:]
	}
	// The tail keeps its position within 16-bit words (an even number of
	// bytes precedes it), so it adds as the leading bytes of one word.
	var w uint64
	for i := range b {
		b[i] = byte(x >> 24)
		w |= uint64(b[i]) << (56 - 8*i)
		x += k
	}
	acc, carry = bits.Add64(acc, w, carry)
	return checksum.Fold64(acc, carry)
}

// reserve carves the records of the n connections the machine is about to
// open from one allocation, and sizes its connection list and port map for
// them, so opening a link's share of a population costs one allocation
// instead of two per connection. The machine's connection storage then
// owes the n connections their first containers.
func (m *SenderMachine) reserve(n int) {
	m.slab = make([]connRecord, n)
	m.store.Reserve(n)
	m.conns = slices.Grow(m.conns, n)
	if len(m.byPort) == 0 {
		m.byPort = make(map[uint16]*senderConn, n)
	}
}

// addConn opens a connection on localPort. It resets a removed
// connection's endpoint and record when there is one, else takes the next
// reserved record, and allocates a record only when both are used up.
func (m *SenderMachine) addConn(localIP, remoteIP ipv4.Addr, localPort, remotePort uint16) (*tcp.Endpoint, error) {
	if _, dup := m.byPort[localPort]; dup {
		return nil, fmt.Errorf("sim: duplicate sender port %d", localPort)
	}
	cfg := &m.connCfg
	*cfg = tcp.DefaultConfig()
	cfg.LocalIP, cfg.RemoteIP = localIP, remoteIP
	cfg.LocalPort, cfg.RemotePort = localPort, remotePort
	cfg.Source = PatternPayloadSum
	cfg.SACK = m.SACK
	c := m.takeConn()
	if err := c.ep.Reset(*cfg, &m.meter, &m.params, m.alloc, m.sim.Clock()); err != nil {
		m.free = append(m.free, c) // never opened: as good as removed
		return nil, err
	}
	*c = senderConn{ep: c.ep, localPort: localPort}
	ep := c.ep
	ep.SetRecoveryRecorder(m.RecoveryRec)
	ep.OnRetransmit = m.retransmitFn
	ep.Output = m.outputFn
	m.conns = append(m.conns, c)
	m.byPort[localPort] = c
	return ep, nil
}

// takeConn returns the record addConn resets: a removed connection's, else
// the next reserved one, else a new one.
func (m *SenderMachine) takeConn() *senderConn {
	if n := len(m.free); n > 0 {
		c := m.free[n-1]
		m.free = m.free[:n-1]
		return c
	}
	var r *connRecord
	if len(m.slab) > 0 {
		r, m.slab = &m.slab[0], m.slab[1:]
	} else {
		r = new(connRecord)
	}
	r.conn.ep = &r.ep
	r.ep.UseStorage(&m.store)
	return &r.conn
}

// retransmit queues a retransmitted frame for the link.
func (m *SenderMachine) retransmit(f []byte) {
	m.pending.Push(f)
	m.kick()
}

// output queues a pure ACK from a connection's receive half (it receives
// only ACKs in stream mode, but the RR client receives data) as a frame:
// the frame buffer leaves with the link, and only the SKB is freed.
func (m *SenderMachine) output(skb *buf.SKB) {
	m.pending.Push(skb.Head)
	skb.Pooled = false
	m.alloc.Free(skb)
	m.kick()
}

func (m *SenderMachine) kick() {
	if m.OnWindowOpen != nil {
		m.OnWindowOpen()
	}
}

// SetConnRate caps the offered rate of the connection with the given
// local port (0 removes the cap). Part of the skewed many-flow workload.
func (m *SenderMachine) SetConnRate(localPort uint16, bps float64) {
	if c, ok := m.byPort[localPort]; ok {
		// Bank allowance earned at the old rate before switching, so
		// repeated re-skews (every churn tick) never confiscate tokens.
		c.refill(m.sim.Now())
		c.rateBps = bps
	}
}

// FinishConn closes the application stream of the connection with the
// given local port: in-flight data drains, nothing new is offered
// (connection-churn teardown).
func (m *SenderMachine) FinishConn(localPort uint16) {
	if c, ok := m.byPort[localPort]; ok {
		c.ep.AppClose()
	}
}

// RemoveConn drops a drained connection from the machine entirely, so
// long churn runs do not accumulate dead conns in the round-robin scan.
// Call only after the flow has drained (FinishConn plus a grace period);
// frames arriving for the port afterwards are ignored like any frame for
// an unknown port. The connection's endpoint and record wait on a free
// list for the next addConn to reset, so the endpoint AddConn returned
// for the port must not be used afterwards.
func (m *SenderMachine) RemoveConn(localPort uint16) {
	c, ok := m.byPort[localPort]
	if !ok {
		return
	}
	delete(m.byPort, localPort)
	for i := range m.conns {
		if m.conns[i] == c {
			m.conns = append(m.conns[:i], m.conns[i+1:]...)
			if m.rrIdx > i {
				m.rrIdx--
			}
			break
		}
	}
	if len(m.conns) == 0 {
		m.rrIdx, m.rrLeft = 0, 0
	} else if m.rrIdx >= len(m.conns) {
		m.rrIdx = 0
	}
	m.free = append(m.free, c)
}

// takeFrame asks one connection for its next data frame, honoring the
// pacing token bucket. The soonest wait of the pace-blocked conns with an
// open window is kept so NextFrame can schedule a wake-up.
func (m *SenderMachine) takeFrame(c *senderConn) []byte {
	if c.rateBps > 0 {
		c.refill(m.sim.Now())
		if c.allowance < paceFrameBytes {
			if c.ep.HasDataToSend() {
				m.paceWait = min(m.paceWait, c.paceWait())
			}
			return nil
		}
	}
	f := c.ep.NextDataFrame(m.MaxPayload)
	if f != nil && c.rateBps > 0 {
		c.allowance -= float64(len(f) + ether.PerFrameOverhead)
	}
	return f
}

// NextFrame returns the next frame to put on the wire, or nil if every
// connection is window-, app- or rate-limited. Control frames
// (retransmissions, pure ACKs) take priority; data is drawn round-robin
// with the quantum.
func (m *SenderMachine) NextFrame() []byte {
	if f, ok := m.pending.Pop(); ok {
		return f
	}
	if len(m.conns) == 0 {
		return nil
	}
	m.paceWait = noPaceWait
	for tries := 0; tries < len(m.conns); tries++ {
		c := m.conns[m.rrIdx]
		if m.rrLeft > 0 {
			if f := m.takeFrame(c); f != nil {
				m.rrLeft--
				return f
			}
		}
		m.rrIdx = (m.rrIdx + 1) % len(m.conns)
		m.rrLeft = m.quantum
		if f := m.takeFrame(m.conns[m.rrIdx]); f != nil {
			m.rrLeft--
			return f
		}
	}
	m.scheduleWake()
	return nil
}

// scheduleWake arms a link kick for the moment the soonest pace-blocked
// connection can afford its next frame. Without this the pull-model link
// would stall whenever every flow is rate-limited and no ACK is due. An
// armed wake is tightened (superseded) when a newly blocked connection
// can afford its frame sooner than the pending deadline.
func (m *SenderMachine) scheduleWake() {
	if m.paceWait == noPaceWait {
		return
	}
	minWait := max(m.paceWait, 1)
	at := m.sim.Now() + minWait
	if m.wakeAt != 0 && at >= m.wakeAt {
		return // the armed wake fires soon enough
	}
	m.wakeAt = at
	m.wakeSeq++
	w := m.wakeFree
	if w != nil {
		m.wakeFree = w.next
	} else {
		w = &paceWake{m: m}
	}
	w.seq = m.wakeSeq
	m.sim.After(minWait, w)
}

// paceWake is one scheduled pacing wake, and its own event. A superseded
// wake still fires, at its own instant, and does nothing: seq tells it
// from the live one. Fired records are recycled through
// SenderMachine.wakeFree.
type paceWake struct {
	m    *SenderMachine
	seq  uint64
	next *paceWake // free-list link
}

func (w *paceWake) fire() {
	m := w.m
	w.next, m.wakeFree = m.wakeFree, w
	if w.seq != m.wakeSeq {
		return // superseded by a tighter wake
	}
	m.wakeAt = 0
	m.kick()
}

// SetPool makes the machine's endpoints cut their frames from p, the run's
// one pool. Every frame NextFrame returns is then a pool buffer.
func (m *SenderMachine) SetPool(p *buf.Pool) { m.alloc.SetPool(p) }

// ReceiveFrame processes a frame arriving from the receiver (ACKs; data in
// RR mode). Parsing happens on the sender's CPU, which is free by
// construction.
func (m *SenderMachine) ReceiveFrame(frame []byte) {
	p, err := packet.Parse(frame)
	if err != nil {
		return // corrupt frames are simply ignored by the sender model
	}
	c, ok := m.byPort[p.TCP.DstPort]
	if !ok {
		return
	}
	m.fragAcks[0] = p.TCP.Ack
	seg := tcp.Segment{
		Hdr:        p.TCP,
		FragAcks:   m.fragAcks[:],
		NetPackets: 1,
	}
	if len(p.Payload) > 0 {
		m.payloads[0] = p.Payload
		seg.Payloads = m.payloads[:]
	}
	c.ep.Input(seg)
	m.payloads[0] = nil
	m.kick()
}

// receiveReverse is ReceiveFrame for frames off the reverse link: a pool
// frame's life ends once the endpoint has processed it.
func (m *SenderMachine) receiveReverse(frame []byte, pooled bool) {
	m.ReceiveFrame(frame)
	if pooled {
		m.alloc.Release(frame)
	}
}

// FireTimers fires due endpoint timers at virtual time now.
func (m *SenderMachine) FireTimers(now uint64) {
	for _, c := range m.conns {
		if d := c.ep.NextTimeout(); d != 0 && now >= d {
			c.ep.OnTimeout(now)
		}
	}
	m.kick()
}
