package tcp

import (
	"bytes"
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/packet"
	"repro/internal/tcpwire"
)

// parsedFrame aliases the shared frame dissection for test readability.
type parsedFrame = packet.Parsed

func parseFrame(frame []byte) (packet.Parsed, error) { return packet.Parse(frame) }

// testEnv bundles one endpoint with its meter and allocator.
type testEnv struct {
	ep    *Endpoint
	meter *cycles.Meter
	alloc *buf.Allocator
	now   uint64
	out   []*buf.SKB
	p     cost.Params
}

func newEnv(t *testing.T, mutate func(*Config)) *testEnv {
	t.Helper()
	env := &testEnv{}
	var m cycles.Meter
	p := cost.NativeUP()
	env.p = p
	env.meter = &m
	env.alloc = buf.NewAllocator(&m, &env.p)
	cfg := DefaultConfig()
	cfg.LocalIP = ipv4.Addr{10, 0, 0, 2}
	cfg.RemoteIP = ipv4.Addr{10, 0, 0, 1}
	cfg.LocalPort = 44000
	cfg.RemotePort = 5001
	if mutate != nil {
		mutate(&cfg)
	}
	ep, err := New(cfg, &m, &env.p, env.alloc, func() uint64 { return env.now })
	if err != nil {
		t.Fatal(err)
	}
	ep.Output = func(s *buf.SKB) { env.out = append(env.out, s) }
	env.ep = ep
	return env
}

// freeOut releases captured output SKBs (keeps allocator accounting clean).
func (env *testEnv) freeOut() {
	for _, s := range env.out {
		env.alloc.Free(s)
	}
	env.out = nil
}

// dataSeg builds an ordinary single-packet data segment.
func dataSeg(seq, ack uint32, payload []byte) Segment {
	return Segment{
		Hdr: tcpwire.Header{
			Seq: seq, Ack: ack, Flags: tcpwire.FlagACK,
			Window: 65535, HasTimestamp: true, TSVal: 100, TSEcr: 0,
		},
		Payloads:   [][]byte{payload},
		FragAcks:   []uint32{ack},
		NetPackets: 1,
	}
}

// aggSeg builds an aggregated segment from per-fragment payloads and acks.
func aggSeg(seq uint32, payloads [][]byte, acks []uint32) Segment {
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	return Segment{
		Hdr: tcpwire.Header{
			Seq: seq, Ack: acks[len(acks)-1], Flags: tcpwire.FlagACK,
			Window: 65535, HasTimestamp: true, TSVal: 100,
		},
		Payloads:   payloads,
		FragAcks:   acks,
		NetPackets: len(payloads),
		Aggregated: true,
	}
}

func mss(n int) []byte { return make([]byte, n) }

func TestNewValidation(t *testing.T) {
	var m cycles.Meter
	p := cost.NativeUP()
	alloc := buf.NewAllocator(&m, &p)
	clock := func() uint64 { return 0 }
	bad := []func(*Config){
		func(c *Config) { c.MSS = 0 },
		func(c *Config) { c.MSS = 70000 },
		func(c *Config) { c.DelAckSegments = 0 },
	}
	for i, f := range bad {
		cfg := DefaultConfig()
		f(&cfg)
		if _, err := New(cfg, &m, &p, alloc, clock); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
	if _, err := New(DefaultConfig(), nil, &p, alloc, clock); err == nil {
		t.Error("expected error for nil meter")
	}
}

func TestInOrderReceiveAdvancesRcvNxt(t *testing.T) {
	env := newEnv(t, nil)
	env.ep.Input(dataSeg(1, 1, mss(1448)))
	if got := env.ep.RcvNxt(); got != 1449 {
		t.Errorf("RcvNxt = %d, want 1449", got)
	}
	if env.ep.Stats().BytesToApp != 1448 {
		t.Errorf("BytesToApp = %d", env.ep.Stats().BytesToApp)
	}
	// One full segment: below the 2-segment threshold, no immediate ACK.
	if len(env.out) != 0 {
		t.Errorf("ACKs after one segment = %d, want 0 (delayed)", len(env.out))
	}
	env.ep.Input(dataSeg(1449, 1, mss(1448)))
	if len(env.out) != 1 {
		t.Fatalf("ACKs after two segments = %d, want 1", len(env.out))
	}
	env.freeOut()
}

// BenchmarkEndpointInputData measures the receiver's in-order data path:
// each iteration takes one MSS segment through Endpoint.Input, and every
// second one sends the delayed ACK, whose buffer a pool recycles.
func BenchmarkEndpointInputData(b *testing.B) {
	var m cycles.Meter
	p := cost.NativeUP()
	alloc := buf.NewAllocator(&m, &p)
	alloc.SetPool(buf.NewPool())
	cfg := DefaultConfig()
	cfg.LocalIP, cfg.RemoteIP = ipv4.Addr{10, 0, 0, 2}, ipv4.Addr{10, 0, 0, 1}
	cfg.LocalPort, cfg.RemotePort = 44000, 5001
	ep, err := New(cfg, &m, &p, alloc, func() uint64 { return 0 })
	if err != nil {
		b.Fatal(err)
	}
	ep.Output = alloc.Free
	seg := dataSeg(1, 1, mss(1448))
	b.ReportAllocs()
	n := uint64(0)
	for b.Loop() {
		ep.Input(seg)
		seg.Hdr.Seq += 1448
		n++
	}
	if got := ep.Stats().BytesToApp; got != n*1448 {
		b.Fatalf("%d bytes reached the application, want %d", got, n*1448)
	}
}

func TestAckEveryTwoSegments(t *testing.T) {
	env := newEnv(t, nil)
	seq := uint32(1)
	for i := 0; i < 10; i++ {
		env.ep.Input(dataSeg(seq, 1, mss(1448)))
		seq += 1448
	}
	if got := env.ep.Stats().AcksOut; got != 5 {
		t.Errorf("AcksOut = %d, want 5 (one per two segments)", got)
	}
	env.freeOut()
}

func TestAppSinkReceivesStream(t *testing.T) {
	env := newEnv(t, nil)
	var got bytes.Buffer
	env.ep.AppSink = func(b []byte) { got.Write(b) }
	want := []byte("abcdefghijklmnopqrstuvwxyz")
	env.ep.Input(dataSeg(1, 1, want[:10]))
	env.ep.Input(dataSeg(11, 1, want[10:]))
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("app stream = %q, want %q", got.Bytes(), want)
	}
	env.freeOut()
}

func TestDuplicateSegmentDupAcks(t *testing.T) {
	env := newEnv(t, nil)
	env.ep.Input(dataSeg(1, 1, mss(1448)))
	env.ep.Input(dataSeg(1, 1, mss(1448))) // exact duplicate
	if env.ep.Stats().DupSegs != 1 {
		t.Errorf("DupSegs = %d, want 1", env.ep.Stats().DupSegs)
	}
	// Duplicate triggers an immediate ACK of rcvNxt.
	if len(env.out) != 1 {
		t.Fatalf("out = %d SKBs, want 1 dup-ACK", len(env.out))
	}
	if env.ep.Stats().BytesToApp != 1448 {
		t.Errorf("duplicate bytes delivered to app: %d", env.ep.Stats().BytesToApp)
	}
	env.freeOut()
}

func TestOutOfOrderQueueAndDrain(t *testing.T) {
	env := newEnv(t, nil)
	var got bytes.Buffer
	env.ep.AppSink = func(b []byte) { got.Write(b) }
	a := []byte("aaaa")
	b := []byte("bbbb")
	c := []byte("cccc")
	env.ep.Input(dataSeg(1, 1, a))
	env.ep.Input(dataSeg(9, 1, c)) // hole at 5
	if env.ep.Stats().OOOSegs != 1 {
		t.Errorf("OOOSegs = %d, want 1", env.ep.Stats().OOOSegs)
	}
	if env.ep.RcvNxt() != 5 {
		t.Errorf("RcvNxt = %d, want 5 (hole)", env.ep.RcvNxt())
	}
	env.ep.Input(dataSeg(5, 1, b)) // fill hole
	if env.ep.RcvNxt() != 13 {
		t.Errorf("RcvNxt = %d, want 13 after drain", env.ep.RcvNxt())
	}
	if got.String() != "aaaabbbbcccc" {
		t.Errorf("app stream = %q", got.String())
	}
	env.freeOut()
}

func TestOOOPartialOverlapDrain(t *testing.T) {
	env := newEnv(t, nil)
	var got bytes.Buffer
	env.ep.AppSink = func(b []byte) { got.Write(b) }
	// Queue [5,13) out of order, then receive [1,9): overlap of 4 bytes.
	env.ep.Input(dataSeg(5, 1, []byte("BBBBCCCC")))
	env.ep.Input(dataSeg(1, 1, []byte("AAAAbbbb")))
	if env.ep.RcvNxt() != 13 {
		t.Errorf("RcvNxt = %d, want 13", env.ep.RcvNxt())
	}
	if got.String() != "AAAAbbbbCCCC" {
		t.Errorf("app stream = %q, want overlap-trimmed AAAAbbbbCCCC", got.String())
	}
	env.freeOut()
}

func TestAggregatedSegmentDelivery(t *testing.T) {
	env := newEnv(t, nil)
	payloads := [][]byte{mss(1448), mss(1448), mss(1448), mss(1448)}
	acks := []uint32{1, 1, 1, 1}
	env.ep.Input(aggSeg(1, payloads, acks))
	if got := env.ep.RcvNxt(); got != 1+4*1448 {
		t.Errorf("RcvNxt = %d, want %d", got, 1+4*1448)
	}
	// 4 constituent segments => 2 ACKs, exactly as if unaggregated.
	if got := env.ep.Stats().AcksOut; got != 2 {
		t.Errorf("AcksOut = %d, want 2", got)
	}
	if env.ep.Stats().SegsIn != 4 {
		t.Errorf("SegsIn = %d, want 4 network packets", env.ep.Stats().SegsIn)
	}
	env.freeOut()
}

// TestAckEquivalenceAggregatedVsNot is the §3.4 item-2 property: the ACK
// train (count and ack numbers) for an aggregated delivery must be
// identical to processing the constituent packets one at a time.
func TestAckEquivalenceAggregatedVsNot(t *testing.T) {
	for _, k := range []int{2, 3, 5, 8, 20} {
		collect := func(aggregated bool) []uint32 {
			env := newEnv(t, nil)
			var ackNums []uint32
			env.ep.Output = func(s *buf.SKB) {
				// Decode ack field from the built frame.
				p := mustParse(t, s.Head)
				ackNums = append(ackNums, p.TCP.Ack)
				for _, a := range s.TemplateAcks {
					ackNums = append(ackNums, a)
				}
				env.alloc.Free(s)
			}
			if aggregated {
				payloads := make([][]byte, k)
				acks := make([]uint32, k)
				for i := range payloads {
					payloads[i] = mss(1448)
					acks[i] = 1
				}
				env.ep.Input(aggSeg(1, payloads, acks))
			} else {
				seq := uint32(1)
				for i := 0; i < k; i++ {
					env.ep.Input(dataSeg(seq, 1, mss(1448)))
					seq += 1448
				}
			}
			return ackNums
		}
		plain := collect(false)
		agg := collect(true)
		if len(plain) != len(agg) {
			t.Fatalf("k=%d: ack count %d (aggregated) != %d (plain)", k, len(agg), len(plain))
		}
		for i := range plain {
			if plain[i] != agg[i] {
				t.Errorf("k=%d: ack[%d] = %d (aggregated) != %d (plain)",
					k, i, agg[i], plain[i])
			}
		}
	}
}

// TestCwndEquivalencePerFragmentAcks is the §3.4 item-1 property: feeding
// the sender side an aggregated segment whose FragAcks cover k ACK numbers
// must advance cwnd exactly as k individual ACK packets would.
func TestCwndEquivalencePerFragmentAcks(t *testing.T) {
	setup := func() *testEnv {
		env := newEnv(t, nil)
		// Put 20 MSS of data in flight.
		env.ep.SetAppLimit(^uint64(0))
		env.ep.sndWnd = 1 << 20
		env.ep.cwnd = 20 * 1448
		for i := 0; i < 20; i++ {
			if f := env.ep.NextDataFrame(0); f == nil {
				t.Fatal("window closed unexpectedly")
			}
		}
		return env
	}

	// Individual ACK packets.
	plain := setup()
	ackBase := plain.ep.cfg.ISS
	for i := 1; i <= 6; i++ {
		a := ackBase + uint32(i*2*1448)
		plain.ep.Input(Segment{
			Hdr:        tcpwire.Header{Ack: a, Flags: tcpwire.FlagACK, Window: 65535},
			FragAcks:   []uint32{a},
			NetPackets: 1,
		})
	}

	// One aggregated segment carrying the same six ACK numbers (as a
	// bidirectional peer's data would after aggregation).
	agg := setup()
	var acks []uint32
	for i := 1; i <= 6; i++ {
		acks = append(acks, ackBase+uint32(i*2*1448))
	}
	agg.ep.Input(Segment{
		Hdr:        tcpwire.Header{Ack: acks[len(acks)-1], Flags: tcpwire.FlagACK, Window: 65535},
		FragAcks:   acks,
		NetPackets: len(acks),
		Aggregated: true,
	})

	if plain.ep.Cwnd() != agg.ep.Cwnd() {
		t.Errorf("cwnd diverged: plain %d, aggregated %d", plain.ep.Cwnd(), agg.ep.Cwnd())
	}
	if plain.ep.SndUna() != agg.ep.SndUna() {
		t.Errorf("sndUna diverged: plain %d, aggregated %d", plain.ep.SndUna(), agg.ep.SndUna())
	}
	// And the broken behaviour (only final ACK) must differ, proving the
	// test discriminates.
	broken := setup()
	broken.ep.Input(Segment{
		Hdr:        tcpwire.Header{Ack: acks[len(acks)-1], Flags: tcpwire.FlagACK, Window: 65535},
		FragAcks:   []uint32{acks[len(acks)-1]},
		NetPackets: 1,
	})
	if broken.ep.Cwnd() == plain.ep.Cwnd() {
		t.Error("single-ack processing unexpectedly matches per-fragment cwnd; test cannot discriminate")
	}
	plain.freeOut()
	agg.freeOut()
	broken.freeOut()
}

func TestAckOffloadTemplateEmission(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.AckOffload = true })
	payloads := make([][]byte, 8)
	acks := make([]uint32, 8)
	for i := range payloads {
		payloads[i] = mss(1448)
		acks[i] = 1
	}
	env.ep.Input(aggSeg(1, payloads, acks))
	// 8 segments => 4 ACK numbers => 1 template SKB carrying 3 extras.
	if len(env.out) != 1 {
		t.Fatalf("out = %d SKBs, want 1 template", len(env.out))
	}
	skb := env.out[0]
	if skb.TemplateAcks == nil || len(skb.TemplateAcks) != 3 {
		t.Fatalf("TemplateAcks = %v, want 3 extras", skb.TemplateAcks)
	}
	st := env.ep.Stats()
	if st.AckTemplatesOut != 1 || st.AcksOut != 4 || st.AckPacketsOut != 4 {
		t.Errorf("stats = %+v", st)
	}
	// The template's own frame must carry the FIRST ack number (§4.2).
	p := mustParse(t, skb.Head)
	if p.TCP.Ack != 1+2*1448 {
		t.Errorf("template ack = %d, want %d", p.TCP.Ack, 1+2*1448)
	}
	env.freeOut()
}

func TestAckOffloadSingleAckNoTemplate(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.AckOffload = true })
	env.ep.Input(aggSeg(1, [][]byte{mss(1448), mss(1448)}, []uint32{1, 1}))
	if len(env.out) != 1 {
		t.Fatalf("out = %d, want 1", len(env.out))
	}
	if env.out[0].TemplateAcks != nil {
		t.Error("single ACK should not use a template")
	}
	env.freeOut()
}

func TestDelayedAckTimerFlush(t *testing.T) {
	env := newEnv(t, nil)
	env.ep.Input(dataSeg(1, 1, mss(1448))) // one segment: ACK delayed
	if len(env.out) != 0 {
		t.Fatal("premature ACK")
	}
	deadline := env.ep.NextTimeout()
	if deadline == 0 {
		t.Fatal("delayed-ACK timer not armed")
	}
	env.now = deadline
	env.ep.OnTimeout(env.now)
	if len(env.out) != 1 {
		t.Fatalf("out = %d after timer, want 1", len(env.out))
	}
	if env.ep.Stats().DelAckTimerFires != 1 {
		t.Errorf("DelAckTimerFires = %d", env.ep.Stats().DelAckTimerFires)
	}
	p := mustParse(t, env.out[0].Head)
	if p.TCP.Ack != 1449 {
		t.Errorf("timer ACK = %d, want 1449", p.TCP.Ack)
	}
	env.freeOut()
}

func TestSubMSSDataAckedByTimer(t *testing.T) {
	env := newEnv(t, nil)
	env.ep.Input(dataSeg(1, 1, []byte("tiny")))
	if len(env.out) != 0 {
		t.Fatal("sub-MSS data acked immediately")
	}
	env.now = env.ep.NextTimeout()
	env.ep.OnTimeout(env.now)
	if len(env.out) != 1 {
		t.Fatal("sub-MSS data never acked")
	}
	env.freeOut()
}

func TestPiggybackClearsDelayedAck(t *testing.T) {
	env := newEnv(t, nil)
	env.ep.SetAppLimit(^uint64(0))
	env.ep.Input(dataSeg(1, 1, []byte("request")))
	if f := env.ep.NextDataFrame(100); f == nil {
		t.Fatal("no data frame")
	} else {
		p := mustParse(t, f)
		if p.TCP.Ack != uint32(1+len("request")) {
			t.Errorf("piggybacked ack = %d", p.TCP.Ack)
		}
	}
	// Advancing past the delayed-ACK deadline must not emit a pure ACK:
	// the data frame already carried it. (The RTO timer is armed, but it
	// is beyond the delayed-ACK deadline and must not fire here.)
	env.now += delAckTimeoutNs + 1
	env.ep.OnTimeout(env.now)
	if len(env.out) != 0 {
		t.Error("delayed ACK emitted despite piggyback")
	}
	env.freeOut()
}

func TestFINHandling(t *testing.T) {
	env := newEnv(t, nil)
	env.ep.Input(dataSeg(1, 1, mss(100)))
	fin := dataSeg(101, 1, nil)
	fin.Payloads = nil
	fin.Hdr.Flags |= tcpwire.FlagFIN
	env.ep.Input(fin)
	if !env.ep.Closed() {
		t.Error("FIN not processed")
	}
	// FIN consumes one sequence number and is acked immediately.
	if env.ep.RcvNxt() != 102 {
		t.Errorf("RcvNxt = %d, want 102", env.ep.RcvNxt())
	}
	if len(env.out) == 0 {
		t.Error("FIN not acked")
	}
	env.freeOut()
}

func TestRSTCloses(t *testing.T) {
	env := newEnv(t, nil)
	rst := dataSeg(1, 1, nil)
	rst.Payloads = nil
	rst.Hdr.Flags = tcpwire.FlagRST
	env.ep.Input(rst)
	if !env.ep.Closed() {
		t.Error("RST not processed")
	}
}

func TestRxChargesPerFragment(t *testing.T) {
	env := newEnv(t, nil)
	base := env.meter.Get(cycles.Rx)
	env.ep.Input(aggSeg(1, [][]byte{mss(1448), mss(1448), mss(1448)}, []uint32{1, 1, 1}))
	got := env.meter.Get(cycles.Rx) - base
	want := env.p.TCPRxSegment + 3*env.p.TCPRxPerFrag
	if got != want {
		t.Errorf("rx charge = %d, want %d", got, want)
	}
	env.freeOut()
}

func mustParse(t *testing.T, frame []byte) parsedFrame {
	t.Helper()
	p, err := parseFrame(frame)
	if err != nil {
		t.Fatalf("frame unparseable: %v", err)
	}
	return p
}

func TestSequenceWraparoundReceive(t *testing.T) {
	// IRS just below the 2^32 wrap: in-order delivery must continue
	// seamlessly across it (wraparound-safe comparisons).
	iss := uint32(0xFFFFFFFF - 2000)
	env := newEnv(t, func(c *Config) { c.IRS = iss })
	var got bytes.Buffer
	env.ep.AppSink = func(b []byte) { got.Write(b) }
	seq := iss
	total := 0
	for i := 0; i < 5; i++ { // crosses the wrap on segment 2
		env.ep.Input(dataSeg(seq, 1, mss(1448)))
		seq += 1448
		total += 1448
	}
	if env.ep.Stats().BytesToApp != uint64(total) {
		t.Errorf("BytesToApp = %d, want %d across wrap", env.ep.Stats().BytesToApp, total)
	}
	if env.ep.RcvNxt() != iss+uint32(total) {
		t.Errorf("RcvNxt = %d, want %d", env.ep.RcvNxt(), iss+uint32(total))
	}
	if env.ep.Stats().DupSegs != 0 || env.ep.Stats().OOOSegs != 0 {
		t.Error("wraparound misclassified in-order segments")
	}
	env.freeOut()
}

func TestSequenceWraparoundAggregated(t *testing.T) {
	iss := uint32(0xFFFFFFFF - 700)
	env := newEnv(t, func(c *Config) { c.IRS = iss })
	payloads := [][]byte{mss(1448), mss(1448)} // second crosses wrap
	env.ep.Input(aggSeg(iss, payloads, []uint32{1, 1}))
	if env.ep.Stats().BytesToApp != 2896 {
		t.Errorf("BytesToApp = %d across aggregated wrap", env.ep.Stats().BytesToApp)
	}
	if env.ep.RcvNxt() != iss+2896 {
		t.Errorf("RcvNxt = %d", env.ep.RcvNxt())
	}
	env.freeOut()
}

func TestPartialOverlapTrimsDirectArrival(t *testing.T) {
	// RFC 793 trimming on the fast path: a segment overlapping rcvNxt
	// delivers only the new suffix.
	env := newEnv(t, nil)
	var got bytes.Buffer
	env.ep.AppSink = func(b []byte) { got.Write(b) }
	env.ep.Input(dataSeg(1, 1, []byte("AAAA")))
	env.ep.Input(dataSeg(3, 1, []byte("aaBB"))) // [3,7): first 2 bytes stale
	if got.String() != "AAAABB" {
		t.Errorf("stream = %q, want AAAABB (prefix trimmed)", got.String())
	}
	if env.ep.Stats().DupSegs != 1 {
		t.Errorf("DupSegs = %d, want 1 partial-dup", env.ep.Stats().DupSegs)
	}
	env.freeOut()
}

func TestSmallMessageSenderAckClock(t *testing.T) {
	// The sub-MSS sender stall regression: a peer streaming equal-sized
	// small messages must be ACKed every DelAckSegments messages through
	// the receive-MSS estimator (Linux's tcp_measure_rcv_mss), not once
	// per delayed-ACK timer fire — without this the sender sits
	// window-limited for 40 ms between ACKs and throughput collapses.
	env := newEnv(t, nil)
	const msg = 512
	seq := uint32(1)
	for i := 0; i < 10; i++ {
		env.ep.Input(dataSeg(seq, 1, mss(msg)))
		seq += msg
	}
	// Message 1 only seeds the estimator; message 2 confirms the size
	// and shrinks the estimate; from there every second message emits an
	// ACK: messages 3, 5, 7, 9.
	if got := env.ep.Stats().AckPacketsOut; got != 4 {
		t.Fatalf("ACK packets = %d over 10 small messages, want 4", got)
	}
	if got := env.ep.Stats().DelAckTimerFires; got != 0 {
		t.Errorf("DelAckTimerFires = %d, want 0 (ACK clock must not need the timer)", got)
	}
	env.freeOut()
}

func TestLoneShortRunKeepsRcvMSSEstimate(t *testing.T) {
	// A single window-limited tail below the MSS must not shrink the
	// estimate: full-MSS flows keep the exact RFC 1122 two-full-segments
	// ACK schedule (this is what preserves the golden runs bit for bit).
	env := newEnv(t, nil)
	env.ep.Input(dataSeg(1, 1, mss(1448)))
	env.ep.Input(dataSeg(1449, 1, mss(500))) // lone short tail
	if got := env.ep.Stats().AckPacketsOut; got != 0 {
		t.Fatalf("ACK packets = %d after MSS+tail, want 0 (tail must not count)", got)
	}
	env.ep.Input(dataSeg(1949, 1, mss(1448)))
	if got := env.ep.Stats().AckPacketsOut; got != 1 {
		t.Fatalf("ACK packets = %d, want 1 (second full segment triggers)", got)
	}
	env.freeOut()
}

func TestRcvMSSEstimateRecovers(t *testing.T) {
	// After a small-message phase the estimate must grow back when the
	// peer resumes full-sized segments.
	env := newEnv(t, nil)
	seq := uint32(1)
	for i := 0; i < 2; i++ { // shrink estimate to 300
		env.ep.Input(dataSeg(seq, 1, mss(300)))
		seq += 300
	}
	if env.ep.rcvMSSEst != 300 {
		t.Fatalf("rcvMSSEst = %d after two 300-byte runs, want 300", env.ep.rcvMSSEst)
	}
	env.ep.Input(dataSeg(seq, 1, mss(1448)))
	if env.ep.rcvMSSEst != 1448 {
		t.Fatalf("rcvMSSEst = %d after full segment, want 1448", env.ep.rcvMSSEst)
	}
	env.freeOut()
}

func TestRetransmittedTailDoesNotShrinkEstimate(t *testing.T) {
	// A window-limited sub-MSS tail whose ACK is lost arrives twice at
	// the same size; the duplicate is not in-order new data and must not
	// shrink the receive-MSS estimate (which would corrupt the full-MSS
	// ACK schedule).
	env := newEnv(t, nil)
	env.ep.Input(dataSeg(1, 1, mss(1448)))
	env.ep.Input(dataSeg(1449, 1, mss(500))) // tail
	env.ep.Input(dataSeg(1449, 1, mss(500))) // RTO retransmit of the tail
	if env.ep.rcvMSSEst != 1448 {
		t.Fatalf("rcvMSSEst = %d after duplicate tail, want 1448", env.ep.rcvMSSEst)
	}
	env.freeOut()
}
