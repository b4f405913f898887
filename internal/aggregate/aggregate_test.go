package aggregate

import (
	"bytes"
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/paper"
	"repro/internal/tcpwire"
)

type env struct {
	eng   *Engine
	meter *cycles.Meter
	alloc *buf.Allocator
	out   []*buf.SKB
	p     cost.Params
}

func newEnv(t testing.TB, cfg Config) *env {
	t.Helper()
	e := &env{p: cost.NativeUP()}
	var m cycles.Meter
	e.meter = &m
	e.alloc = buf.NewAllocator(&m, &e.p)
	eng, err := New(cfg, &m, &e.p, e.alloc)
	if err != nil {
		t.Fatal(err)
	}
	eng.Out = func(s *buf.SKB) { e.out = append(e.out, s) }
	e.eng = eng
	return e
}

func (e *env) freeOut() {
	for _, s := range e.out {
		e.alloc.Free(s)
	}
	e.out = nil
}

// flowFrame builds an in-sequence data frame for the canonical test flow.
func flowFrame(seq, ack uint32, payloadLen int, mutate func(*packet.TCPSpec)) nic.Frame {
	spec := packet.TCPSpec{
		SrcIP: ipv4.Addr{10, 0, 0, 1}, DstIP: ipv4.Addr{10, 0, 0, 2},
		SrcPort: 5001, DstPort: 44000,
		Seq: seq, Ack: ack,
		Flags: tcpwire.FlagACK, Window: 65535,
		HasTS: true, TSVal: 100, TSEcr: 50,
		Payload: make([]byte, payloadLen),
	}
	for i := range spec.Payload {
		spec.Payload[i] = byte(seq + uint32(i))
	}
	if mutate != nil {
		mutate(&spec)
	}
	return nic.Frame{Data: packet.MustBuild(spec), RxCsumOK: true}
}

// feedRun feeds k in-sequence MSS frames starting at seq 1.
func feedRun(e *env, k int) {
	seq := uint32(1)
	for i := 0; i < k; i++ {
		e.eng.Input(flowFrame(seq, 1, 1448, nil))
		seq += 1448
	}
}

func TestNewValidation(t *testing.T) {
	var m cycles.Meter
	p := cost.NativeUP()
	alloc := buf.NewAllocator(&m, &p)
	if _, err := New(Config{Limit: 0}, &m, &p, alloc); err == nil {
		t.Error("expected error for zero limit")
	}
	if _, err := New(DefaultConfig(), nil, &p, alloc); err == nil {
		t.Error("expected error for nil meter")
	}
}

func TestAggregatesUpToLimit(t *testing.T) {
	e := newEnv(t, Config{Limit: 4})
	feedRun(e, 4)
	if len(e.out) != 1 {
		t.Fatalf("host packets = %d, want 1", len(e.out))
	}
	skb := e.out[0]
	if !skb.Aggregated || skb.NetPackets != 4 {
		t.Errorf("skb: aggregated=%v netpackets=%d", skb.Aggregated, skb.NetPackets)
	}
	if len(skb.Frags) != 3 {
		t.Errorf("frags = %d, want 3", len(skb.Frags))
	}
	if !skb.CsumVerified {
		t.Error("aggregate not marked checksum-verified")
	}
	st := e.eng.Stats()
	if st.FlushLimit != 1 || st.Coalesced != 3 || st.FramesIn != 4 || st.HostOut != 1 {
		t.Errorf("stats = %+v", st)
	}
	e.freeOut()
}

func TestHeaderRewrite(t *testing.T) {
	e := newEnv(t, Config{Limit: 3})
	// Three frames with advancing acks, windows and timestamps.
	e.eng.Input(flowFrame(1, 1000, 1448, func(s *packet.TCPSpec) {
		s.Window = 1000
		s.TSVal = 111
	}))
	e.eng.Input(flowFrame(1449, 2000, 1448, func(s *packet.TCPSpec) {
		s.Window = 2000
		s.TSVal = 222
	}))
	e.eng.Input(flowFrame(2897, 3000, 1448, func(s *packet.TCPSpec) {
		s.Window = 3000
		s.TSVal = 333
		s.TSEcr = 99
	}))
	if len(e.out) != 1 {
		t.Fatalf("host packets = %d, want 1", len(e.out))
	}
	skb := e.out[0]
	l3 := skb.L3()
	// The rewritten IP header must checksum correctly and cover all
	// coalesced payload (§3.2).
	if !ipv4.VerifyChecksum(l3) {
		t.Error("rewritten IP header checksum invalid")
	}
	ih, err := ipv4.Parse(append(l3[:20:20], make([]byte, 3*1448+32)...))
	if err != nil {
		t.Fatal(err)
	}
	if want := 20 + 32 + 3*1448; ih.TotalLen != want {
		t.Errorf("TotalLen = %d, want %d", ih.TotalLen, want)
	}
	// TCP header fields come from the LAST fragment.
	th, err := tcpwire.Parse(l3[20:])
	if err != nil {
		t.Fatal(err)
	}
	if th.Seq != 1 {
		t.Errorf("Seq = %d, want first fragment's 1", th.Seq)
	}
	if th.Ack != 3000 {
		t.Errorf("Ack = %d, want last fragment's 3000", th.Ack)
	}
	if th.Window != 3000 {
		t.Errorf("Window = %d, want last fragment's 3000", th.Window)
	}
	if th.TSVal != 333 || th.TSEcr != 99 {
		t.Errorf("timestamps = %d/%d, want last fragment's 333/99", th.TSVal, th.TSEcr)
	}
	// Per-fragment ACK metadata preserved in order (§3.2).
	acks := skb.FragAcks()
	want := []uint32{1000, 2000, 3000}
	for i := range want {
		if acks[i] != want[i] {
			t.Errorf("FragAcks[%d] = %d, want %d", i, acks[i], want[i])
		}
	}
	e.freeOut()
}

func TestPayloadBytesPreserved(t *testing.T) {
	e := newEnv(t, Config{Limit: 3})
	feedRun(e, 3)
	skb := e.out[0]
	// Reassemble the byte stream: head payload + fragments.
	var got bytes.Buffer
	l3 := skb.L3()
	got.Write(l3[20+32 : 20+32+1448])
	for _, f := range skb.Frags {
		got.Write(f.Data)
	}
	want := make([]byte, 3*1448)
	seq := uint32(1)
	for i := range want {
		want[i] = byte(seq + uint32(i%1448))
		if (i+1)%1448 == 0 {
			seq += 1448
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("aggregated payload bytes differ from originals (§3.2: no data copy, no loss)")
	}
	e.freeOut()
}

func TestWorkConservingFlush(t *testing.T) {
	e := newEnv(t, Config{Limit: 20})
	feedRun(e, 3) // below limit: still pending
	if len(e.out) != 0 {
		t.Fatalf("premature delivery: %d", len(e.out))
	}
	if e.eng.PendingFlows() != 1 {
		t.Fatalf("pending flows = %d", e.eng.PendingFlows())
	}
	e.eng.FlushAll()
	if len(e.out) != 1 {
		t.Fatalf("host packets after flush = %d, want 1", len(e.out))
	}
	if e.out[0].NetPackets != 3 {
		t.Errorf("NetPackets = %d, want 3", e.out[0].NetPackets)
	}
	if e.eng.Stats().FlushIdle != 1 {
		t.Errorf("FlushIdle = %d", e.eng.Stats().FlushIdle)
	}
	if e.eng.PendingFlows() != 0 {
		t.Error("flows still pending after FlushAll")
	}
	e.freeOut()
}

func TestLimitOneDeliversImmediately(t *testing.T) {
	// §5.5: Aggregation Limit 1 must never hold packets.
	e := newEnv(t, Config{Limit: 1})
	feedRun(e, 5)
	if len(e.out) != 5 {
		t.Fatalf("host packets = %d, want 5", len(e.out))
	}
	for _, s := range e.out {
		if s.Aggregated || s.NetPackets != 1 {
			t.Error("limit-1 packet marked aggregated")
		}
	}
	if e.eng.PendingFlows() != 0 {
		t.Error("limit-1 left pending flows")
	}
	e.freeOut()
}

func TestOutOfSequenceFlushesAndRestarts(t *testing.T) {
	e := newEnv(t, Config{Limit: 20})
	e.eng.Input(flowFrame(1, 1, 1448, nil))
	e.eng.Input(flowFrame(1449, 1, 1448, nil))
	// Gap: sequence jumps.
	e.eng.Input(flowFrame(5000, 1, 1448, nil))
	if len(e.out) != 1 {
		t.Fatalf("host packets = %d, want 1 (flushed pair)", len(e.out))
	}
	if e.out[0].NetPackets != 2 {
		t.Errorf("flushed aggregate = %d packets, want 2", e.out[0].NetPackets)
	}
	if e.eng.Stats().FlushMismatch != 1 {
		t.Errorf("FlushMismatch = %d", e.eng.Stats().FlushMismatch)
	}
	// The out-of-sequence frame starts a new pending aggregate.
	if e.eng.PendingFlows() != 1 {
		t.Errorf("pending flows = %d, want 1", e.eng.PendingFlows())
	}
	e.eng.FlushAll()
	e.freeOut()
}

func TestAckRegressionNotCoalesced(t *testing.T) {
	// §3.1: a later fragment must have ack >= the previous fragment's.
	e := newEnv(t, Config{Limit: 20})
	e.eng.Input(flowFrame(1, 5000, 1448, nil))
	e.eng.Input(flowFrame(1449, 4000, 1448, nil)) // ACK regressed
	if e.eng.Stats().FlushMismatch != 1 {
		t.Errorf("FlushMismatch = %d, want 1", e.eng.Stats().FlushMismatch)
	}
	if len(e.out) != 1 || e.out[0].NetPackets != 1 {
		t.Error("regressed-ack frame must not join the aggregate")
	}
	e.eng.FlushAll()
	e.freeOut()
}

func TestPassthroughRules(t *testing.T) {
	cases := []struct {
		name   string
		frame  nic.Frame
		reject func(Stats) uint64
	}{
		{"no csum offload", func() nic.Frame {
			f := flowFrame(1, 1, 100, nil)
			f.RxCsumOK = false
			return f
		}(), func(s Stats) uint64 { return s.RejNoCsumOffload }},
		{"ip options", flowFrame(1, 1, 100, func(s *packet.TCPSpec) {
			s.IPOptions = []byte{0x94, 0x04, 0, 0}
		}), func(s Stats) uint64 { return s.RejIPOptions }},
		{"fragment", flowFrame(1, 1, 100, func(s *packet.TCPSpec) {
			s.MF = true
		}), func(s Stats) uint64 { return s.RejFragment }},
		{"syn flag", flowFrame(1, 1, 100, func(s *packet.TCPSpec) {
			s.Flags = tcpwire.FlagSYN | tcpwire.FlagACK
		}), func(s Stats) uint64 { return s.RejFlags }},
		{"fin flag", flowFrame(1, 1, 100, func(s *packet.TCPSpec) {
			s.Flags = tcpwire.FlagFIN | tcpwire.FlagACK
		}), func(s Stats) uint64 { return s.RejFlags }},
		{"sack option", flowFrame(1, 1, 100, func(s *packet.TCPSpec) {
			s.RawTCPOptions = []byte{tcpwire.OptSACKPerm, 2, tcpwire.OptNOP, tcpwire.OptNOP}
		}), func(s Stats) uint64 { return s.RejOtherOptions }},
		{"pure ack", flowFrame(1, 1, 0, nil),
			func(s Stats) uint64 { return s.RejZeroLen }},
		{"bad ip csum", flowFrame(1, 1, 100, func(s *packet.TCPSpec) {
			s.CorruptIPCsum = true
		}), func(s Stats) uint64 { return s.RejBadIPCsum }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, DefaultConfig())
			e.eng.Input(tc.frame)
			if len(e.out) != 1 {
				t.Fatalf("host packets = %d, want 1 passthrough", len(e.out))
			}
			if e.out[0].Aggregated {
				t.Error("ineligible frame delivered as aggregate")
			}
			if got := tc.reject(e.eng.Stats()); got != 1 {
				t.Errorf("rejection counter = %d, want 1", got)
			}
			// Frame must be delivered unmodified.
			if !bytes.Equal(e.out[0].Head, tc.frame.Data) {
				t.Error("passthrough frame modified")
			}
			e.freeOut()
		})
	}
}

func TestNonIPPassthrough(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	arp := flowFrame(1, 1, 50, nil)
	arp.Data[12], arp.Data[13] = 0x08, 0x06
	e.eng.Input(arp)
	if len(e.out) != 1 || e.eng.Stats().RejNonIP != 1 {
		t.Error("non-IP frame not passed through")
	}
	runt := nic.Frame{Data: make([]byte, 8)}
	e.eng.Input(runt)
	if len(e.out) != 2 {
		t.Error("runt frame not passed through")
	}
	e.freeOut()
}

func TestInOrderDeliveryAcrossIneligibleFrame(t *testing.T) {
	// §3.1: the pending aggregate must be delivered BEFORE a subsequent
	// ineligible frame of the same flow.
	e := newEnv(t, Config{Limit: 20})
	e.eng.Input(flowFrame(1, 1, 1448, nil))
	e.eng.Input(flowFrame(1449, 1, 1448, nil))
	// Pure ACK of the same flow: ineligible, must flush the pair first.
	e.eng.Input(flowFrame(2897, 1, 0, nil))
	if len(e.out) != 2 {
		t.Fatalf("host packets = %d, want 2", len(e.out))
	}
	if e.out[0].NetPackets != 2 || e.out[1].NetPackets != 1 {
		t.Errorf("delivery order wrong: %d then %d packets",
			e.out[0].NetPackets, e.out[1].NetPackets)
	}
	e.freeOut()
}

func TestMultipleFlowsAggregateIndependently(t *testing.T) {
	e := newEnv(t, Config{Limit: 4})
	mkFlow := func(port uint16, seq uint32) nic.Frame {
		return flowFrame(seq, 1, 1448, func(s *packet.TCPSpec) { s.SrcPort = port })
	}
	// Interleave two flows; both must aggregate to 4.
	seqs := map[uint16]uint32{100: 1, 200: 1}
	for i := 0; i < 8; i++ {
		port := uint16(100)
		if i%2 == 1 {
			port = 200
		}
		e.eng.Input(mkFlow(port, seqs[port]))
		seqs[port] += 1448
	}
	if len(e.out) != 2 {
		t.Fatalf("host packets = %d, want 2", len(e.out))
	}
	for _, s := range e.out {
		if s.NetPackets != 4 {
			t.Errorf("aggregate = %d packets, want 4", s.NetPackets)
		}
	}
	e.freeOut()
}

func TestTableEviction(t *testing.T) {
	e := newEnv(t, Config{Limit: 20})
	for port := uint16(1); port <= tableSize+1; port++ {
		e.eng.Input(flowFrame(1, 1, 1448, func(s *packet.TCPSpec) { s.SrcPort = port }))
	}
	// Flow 257 evicts the first (oldest).
	if e.eng.Stats().FlushEvict != 1 {
		t.Errorf("FlushEvict = %d, want 1", e.eng.Stats().FlushEvict)
	}
	if len(e.out) != 1 {
		t.Fatalf("host packets = %d, want 1 evicted", len(e.out))
	}
	if e.eng.PendingFlows() != tableSize {
		t.Errorf("pending = %d, want %d", e.eng.PendingFlows(), tableSize)
	}
	if p, err := packet.Parse(e.out[0].Head); err != nil || p.TCP.SrcPort != 1 {
		t.Errorf("evicted flow's source port = %d (err %v), want the oldest, 1", p.TCP.SrcPort, err)
	}
	e.eng.FlushAll()
	e.freeOut()
}

func TestAggrCycleCharges(t *testing.T) {
	e := newEnv(t, Config{Limit: 4})
	feedRun(e, 4)
	perFrame := e.p.AggrPerFrame + e.p.MACProcFixed + e.p.Mem.HeaderTouchCost()
	want := 4*perFrame + e.p.AggrPerAggregate
	if got := e.meter.Get(cycles.Aggr); got != want {
		t.Errorf("aggr charge = %d, want %d", got, want)
	}
	// Roughly the paper's cycles/packet for the aggregation routine
	// (§5.1), dominated by the compulsory header miss.
	row := paper.Get("fig8/aggr")
	if perPkt := float64(e.meter.Get(cycles.Aggr)) / 4; !row.In(perPkt) {
		t.Errorf("aggr cycles/packet = %.0f, paper reports ~%v", perPkt, row.Paper)
	}
	e.freeOut()
}

func TestCompactOrderBoundsMemory(t *testing.T) {
	e := newEnv(t, Config{Limit: 2})
	// Thousands of limit-flushes must not grow the order slice without
	// bound even though FlushAll never runs.
	for i := 0; i < 5000; i++ {
		seq := uint32(1 + i*2896)
		e.eng.Input(flowFrame(seq, 1, 1448, nil))
		e.eng.Input(flowFrame(seq+1448, 1, 1448, nil))
		e.out = e.out[:0] // discard without freeing (throwaway buffers)
	}
	if len(e.eng.order) > 4*tableSize+1 {
		t.Errorf("order slice grew to %d entries", len(e.eng.order))
	}
}

// TestReorderAdjacentSwapStitched: the canonical coalescing-reorder
// pattern — two adjacent frames swapped — must not tear the aggregate
// down when the resequencing window is on: the early frame is held and
// stitched once the gap fills, yielding one aggregate with the payload in
// sequence order.
func TestReorderAdjacentSwapStitched(t *testing.T) {
	e := newEnv(t, Config{Limit: 20, ReorderWindow: 2})
	defer e.freeOut()
	e.eng.Input(flowFrame(1, 1, 1448, nil))
	e.eng.Input(flowFrame(1+2*1448, 1, 1448, nil)) // frame 3 arrives early
	if len(e.out) != 0 {
		t.Fatalf("premature delivery: %d host packets", len(e.out))
	}
	if got := e.eng.HeldFrames(); got != 1 {
		t.Fatalf("HeldFrames = %d, want 1", got)
	}
	e.eng.Input(flowFrame(1+1448, 1, 1448, nil)) // gap fills
	e.eng.Input(flowFrame(1+3*1448, 1, 1448, nil))
	e.eng.FlushAll()
	if len(e.out) != 1 || e.out[0].NetPackets != 4 {
		t.Fatalf("want one 4-frame aggregate, got %d packets (first NetPackets=%d)",
			len(e.out), e.out[0].NetPackets)
	}
	// Payload must be byte-exact in sequence order despite the swap.
	var got bytes.Buffer
	got.Write(e.out[0].L3()[20+32 : 20+32+1448])
	for _, f := range e.out[0].Frags {
		got.Write(f.Data)
	}
	want := make([]byte, 4*1448)
	for i := range want {
		seq := uint32(1 + (i/1448)*1448)
		want[i] = byte(seq + uint32(i%1448))
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("stitched payload not in sequence order")
	}
	st := e.eng.Stats()
	if st.Held != 1 || st.Stitched != 1 || st.WindowTimeout != 0 ||
		st.FlushMismatch != 0 || st.FlushWindowOverflow != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestReorderWindowOverflowFlushes: a frame beyond the window's capacity
// flushes the aggregate (and drains the window) exactly like a mismatch,
// counted as FlushWindowOverflow.
func TestReorderWindowOverflowFlushes(t *testing.T) {
	e := newEnv(t, Config{Limit: 20, ReorderWindow: 1})
	defer e.freeOut()
	e.eng.Input(flowFrame(1, 1, 1448, nil))
	e.eng.Input(flowFrame(1+2*1448, 1, 1448, nil)) // held (1 slot)
	e.eng.Input(flowFrame(1+4*1448, 1, 1448, nil)) // window full -> overflow
	if len(e.out) != 2 {
		t.Fatalf("host packets = %d, want 2 (flushed head + drained held)", len(e.out))
	}
	if e.out[0].NetPackets != 1 || e.out[1].NetPackets != 1 {
		t.Error("overflow flush delivered wrong shapes")
	}
	st := e.eng.Stats()
	if st.FlushWindowOverflow != 1 || st.Held != 1 || st.WindowTimeout != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The overflowing frame starts the fresh pending aggregate.
	if e.eng.PendingFlows() != 1 || e.eng.HeldFrames() != 0 {
		t.Errorf("pending=%d held=%d after overflow", e.eng.PendingFlows(), e.eng.HeldFrames())
	}
	e.eng.FlushAll()
}

// TestReorderByteSpanBound: a frame within slot capacity is held while
// its span (gap plus payload) fits in 64 KiB, and not held beyond it.
func TestReorderByteSpanBound(t *testing.T) {
	e := newEnv(t, Config{Limit: 20, ReorderWindow: 8})
	defer e.freeOut()
	e.eng.Input(flowFrame(1, 1, 1448, nil))
	// Spans count from the expected sequence number, 1+1448.
	e.eng.Input(flowFrame(1+45*1448, 1, 1448, nil)) // span 45*1448 = 65160: held
	if st := e.eng.Stats(); st.FlushWindowOverflow != 0 || st.Held != 1 {
		t.Errorf("after a frame inside the span: stats = %+v", st)
	}
	e.eng.Input(flowFrame(1+46*1448, 1, 1448, nil)) // span 46*1448 = 66608 > 65536
	if st := e.eng.Stats(); st.FlushWindowOverflow != 1 || st.Held != 1 {
		t.Errorf("after a frame beyond the span: stats = %+v", st)
	}
	e.eng.FlushAll()
}

// TestReorderIdleFlushDrainsHeldInOrder: when the queue goes idle before
// the gap fills, FlushAll delivers the aggregate first and then the held
// frames in sequence order (work conservation: nothing outlives the
// flush), counted as WindowTimeout. The two held frames are contiguous
// with each other (only the gap in front never filled), so they drain as
// one stitched aggregate rather than two host packets.
func TestReorderIdleFlushDrainsHeldInOrder(t *testing.T) {
	e := newEnv(t, Config{Limit: 20, ReorderWindow: 4})
	defer e.freeOut()
	e.eng.Input(flowFrame(1, 1, 1448, nil))
	e.eng.Input(flowFrame(1+3*1448, 1, 1448, nil)) // held, out of order
	e.eng.Input(flowFrame(1+2*1448, 1, 1448, nil)) // held, sorts before
	e.eng.FlushAll()
	if len(e.out) != 2 {
		t.Fatalf("host packets = %d, want 2 (head + stitched drain run)", len(e.out))
	}
	// Aggregate (head) first, then the drained run in sequence order.
	seqOf := func(s *buf.SKB) uint32 {
		th, err := tcpwire.Parse(s.L3()[20:])
		if err != nil {
			t.Fatal(err)
		}
		return th.Seq
	}
	if e.out[0].NetPackets != 1 || seqOf(e.out[0]) != 1 {
		t.Error("aggregate head not delivered first")
	}
	if e.out[1].NetPackets != 2 || seqOf(e.out[1]) != 1+2*1448 {
		t.Errorf("drain run shape: %d packets at seq %d", e.out[1].NetPackets, seqOf(e.out[1]))
	}
	st := e.eng.Stats()
	if st.Held != 2 || st.WindowTimeout != 2 || st.Stitched != 0 ||
		st.FlushHeldDrain != 1 || st.DrainStitched != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.FramesIn != st.HostOut+st.Coalesced {
		t.Errorf("frame conservation broken: %+v", st)
	}
	if e.eng.HeldFrames() != 0 || e.eng.PendingFlows() != 0 {
		t.Error("window not empty after FlushAll")
	}
}

// TestDrainStitchRunPayload: a drained run's aggregate carries the §3.2
// rewrite — total length spanning the run, last fragment's ACK/window —
// and byte-exact in-sequence payload.
func TestDrainStitchRunPayload(t *testing.T) {
	e := newEnv(t, Config{Limit: 20, ReorderWindow: 8})
	defer e.freeOut()
	e.eng.Input(flowFrame(1, 1, 1448, nil))
	// A 3-distance displacement: frames 3,4,5 arrive while 2 is delayed.
	for _, i := range []int{2, 3, 4} {
		e.eng.Input(flowFrame(uint32(1+i*1448), uint32(1+100*i), 1448, nil))
	}
	e.eng.FlushAll() // gap never fills
	if len(e.out) != 2 {
		t.Fatalf("host packets = %d, want 2", len(e.out))
	}
	run := e.out[1]
	if run.NetPackets != 3 || !run.Aggregated {
		t.Fatalf("drain run: %d packets, aggregated=%v", run.NetPackets, run.Aggregated)
	}
	var got bytes.Buffer
	got.Write(run.L3()[20+32 : 20+32+1448])
	for _, f := range run.Frags {
		got.Write(f.Data)
	}
	want := make([]byte, 3*1448)
	for i := range want {
		seq := uint32(1 + (2+i/1448)*1448)
		want[i] = byte(seq + uint32(i%1448))
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("drain run payload not byte-exact in sequence order")
	}
	th, err := tcpwire.Parse(run.L3()[20:])
	if err != nil {
		t.Fatal(err)
	}
	if th.Ack != 1+100*4 {
		t.Errorf("rewritten ACK = %d, want the last fragment's %d", th.Ack, 1+100*4)
	}
	st := e.eng.Stats()
	if st.WindowTimeout != 3 || st.FlushHeldDrain != 1 || st.DrainStitched != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDrainStitchRespectsGapsAndLimit: non-contiguous held frames split
// into separate deliveries, and a run longer than the Aggregation Limit
// is capped like any aggregate.
func TestDrainStitchRespectsGapsAndLimit(t *testing.T) {
	e := newEnv(t, Config{Limit: 2, ReorderWindow: 8})
	defer e.freeOut()
	e.eng.Input(flowFrame(1, 1, 1448, nil))
	// Held: 2,3,4 contiguous; 6 isolated (gap at 5).
	for _, i := range []int{2, 3, 4, 6} {
		e.eng.Input(flowFrame(uint32(1+i*1448), 1, 1448, nil))
	}
	e.eng.FlushAll()
	// Head, run(2,3) capped by Limit=2, lone 4, lone 6.
	if len(e.out) != 4 {
		t.Fatalf("host packets = %d, want 4", len(e.out))
	}
	if e.out[1].NetPackets != 2 || e.out[2].NetPackets != 1 || e.out[3].NetPackets != 1 {
		t.Errorf("shapes: %d/%d/%d", e.out[1].NetPackets, e.out[2].NetPackets, e.out[3].NetPackets)
	}
	st := e.eng.Stats()
	if st.WindowTimeout != 4 || st.FlushHeldDrain != 1 || st.DrainStitched != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.FramesIn != st.HostOut+st.Coalesced {
		t.Errorf("frame conservation broken: %+v", st)
	}
}

// TestReorderLimitMidStitch: the Aggregation Limit landing inside a
// stitched run closes the aggregate and continues the run in a fresh one
// — same host-packet count as an in-order run of that length.
func TestReorderLimitMidStitch(t *testing.T) {
	e := newEnv(t, Config{Limit: 3, ReorderWindow: 4})
	defer e.freeOut()
	seqAt := func(i int) uint32 { return uint32(1 + i*1448) }
	e.eng.Input(flowFrame(seqAt(0), 1, 1448, nil))
	e.eng.Input(flowFrame(seqAt(1), 1, 1448, nil))
	for _, i := range []int{3, 4, 5} { // ahead: held
		e.eng.Input(flowFrame(seqAt(i), 1, 1448, nil))
	}
	e.eng.Input(flowFrame(seqAt(2), 1, 1448, nil)) // gap fills: stitch run of 6
	if len(e.out) != 2 || e.out[0].NetPackets != 3 || e.out[1].NetPackets != 3 {
		t.Fatalf("want two 3-frame aggregates, got %d packets", len(e.out))
	}
	st := e.eng.Stats()
	if st.Held != 3 || st.Stitched != 3 || st.WindowTimeout != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.FlushLimit != 2 {
		t.Errorf("FlushLimit = %d, want 2", st.FlushLimit)
	}
}

// TestReorderHeldAckRegression: a held frame whose ACK regresses relative
// to the aggregate by stitch time violates §3.1 and flushes everything.
func TestReorderHeldAckRegression(t *testing.T) {
	e := newEnv(t, Config{Limit: 20, ReorderWindow: 4})
	defer e.freeOut()
	e.eng.Input(flowFrame(1, 2000, 1448, nil))
	e.eng.Input(flowFrame(1+2*1448, 2500, 1448, nil)) // held, ack fine at hold time
	// Gap filler advances the aggregate's ACK beyond the held frame's.
	e.eng.Input(flowFrame(1+1448, 3000, 1448, nil))
	if st := e.eng.Stats(); st.FlushMismatch != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Aggregate of 2 delivered, held frame drained after it.
	if len(e.out) != 2 || e.out[0].NetPackets != 2 {
		t.Fatalf("unexpected delivery shape: %d packets", len(e.out))
	}
	e.eng.FlushAll()
}

// TestReorderDuplicateHeldRejected: a frame overlapping one already held
// (a retransmission inside the window) cannot be held — it flushes.
func TestReorderDuplicateHeldRejected(t *testing.T) {
	e := newEnv(t, Config{Limit: 20, ReorderWindow: 4})
	defer e.freeOut()
	e.eng.Input(flowFrame(1, 1, 1448, nil))
	e.eng.Input(flowFrame(1+2*1448, 1, 1448, nil))
	e.eng.Input(flowFrame(1+2*1448, 1, 1448, nil)) // duplicate of the held frame
	if st := e.eng.Stats(); st.FlushWindowOverflow != 1 || st.Held != 1 {
		t.Errorf("stats = %+v", st)
	}
	e.eng.FlushAll()
}

// TestReorderWindowZeroIdentical: ReorderWindow = 0 must reproduce the
// original flush-on-OOO behaviour exactly (the golden-compatibility
// contract).
func TestReorderWindowZeroIdentical(t *testing.T) {
	e := newEnv(t, Config{Limit: 20, ReorderWindow: 0})
	e.eng.Input(flowFrame(1, 1, 1448, nil))
	e.eng.Input(flowFrame(1+2*1448, 1, 1448, nil)) // OOO: must flush, not hold
	if st := e.eng.Stats(); st.FlushMismatch != 1 || st.Held != 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(e.out) != 1 {
		t.Fatalf("host packets = %d, want 1", len(e.out))
	}
	e.eng.FlushAll()
	e.freeOut()
}

// TestReorderConfigValidation: negative window parameters are errors.
func TestReorderConfigValidation(t *testing.T) {
	var m cycles.Meter
	p := cost.NativeUP()
	alloc := buf.NewAllocator(&m, &p)
	if _, err := New(Config{Limit: 2, ReorderWindow: -1}, &m, &p, alloc); err == nil {
		t.Error("negative ReorderWindow accepted")
	}
}

// TestReorderStitchAcrossSequenceWrap: hold/stitch arithmetic must be
// wraparound-safe like the rest of the engine.
func TestReorderStitchAcrossSequenceWrap(t *testing.T) {
	e := newEnv(t, Config{Limit: 20, ReorderWindow: 2})
	defer e.freeOut()
	seq := uint32(0xFFFFFFFF - 2000) // run crosses 2^32
	e.eng.Input(flowFrame(seq, 1, 1448, nil))
	e.eng.Input(flowFrame(seq+2*1448, 1, 1448, nil)) // early
	e.eng.Input(flowFrame(seq+1448, 1, 1448, nil))   // gap fills across wrap
	e.eng.FlushAll()
	if len(e.out) != 1 || e.out[0].NetPackets != 3 {
		t.Fatalf("wrap broke stitching: %d host packets", len(e.out))
	}
	if st := e.eng.Stats(); st.Stitched != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAggregationAcrossSequenceWrap(t *testing.T) {
	// Sequence continuity must hold across the 2^32 wrap.
	e := newEnv(t, Config{Limit: 4})
	seq := uint32(0xFFFFFFFF - 2000)
	for i := 0; i < 4; i++ {
		e.eng.Input(flowFrame(seq, 1, 1448, nil))
		seq += 1448
	}
	if len(e.out) != 1 || e.out[0].NetPackets != 4 {
		t.Fatalf("wrap broke aggregation: %d host packets", len(e.out))
	}
	e.freeOut()
}
