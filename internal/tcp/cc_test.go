package tcp

import (
	"testing"
	"testing/quick"

	"repro/internal/checksum"
	"repro/internal/tcpwire"
)

// ackSeg builds a pure-ACK segment.
func ackSeg(ack uint32) Segment {
	return Segment{
		Hdr:        tcpwire.Header{Ack: ack, Flags: tcpwire.FlagACK, Window: 65535},
		FragAcks:   []uint32{ack},
		NetPackets: 1,
	}
}

// pump moves n MSS segments into flight.
func pump(t *testing.T, env *testEnv, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if f := env.ep.NextDataFrame(0); f == nil {
			t.Fatalf("window closed after %d segments (cwnd %d, flight %d)",
				i, env.ep.Cwnd(), env.ep.flightSize())
		}
	}
}

func senderEnv(t *testing.T) *testEnv {
	env := newEnv(t, nil)
	env.ep.cwnd = 2 * env.ep.cfg.MSS
	env.ep.SetAppLimit(^uint64(0))
	env.ep.sndWnd = 1 << 20
	return env
}

func TestSlowStartGrowth(t *testing.T) {
	env := senderEnv(t)
	mssB := env.ep.cfg.MSS
	if env.ep.Cwnd() != 2*mssB {
		t.Fatalf("initial cwnd = %d", env.ep.Cwnd())
	}
	pump(t, env, 2)
	env.ep.Input(ackSeg(iss + uint32(2*mssB)))
	// One ACK in slow start: cwnd += MSS.
	if got, want := env.ep.Cwnd(), 3*mssB; got != want {
		t.Errorf("cwnd after 1 ack = %d, want %d", got, want)
	}
	if env.ep.SndUna() != iss+uint32(2*mssB) {
		t.Errorf("sndUna = %d", env.ep.SndUna())
	}
}

func TestCongestionAvoidanceGrowth(t *testing.T) {
	env := senderEnv(t)
	mssB := env.ep.cfg.MSS
	env.ep.ssthresh = 2 * mssB // force CA immediately
	pump(t, env, 2)
	before := env.ep.Cwnd()
	env.ep.Input(ackSeg(iss + uint32(mssB)))
	got := env.ep.Cwnd() - before
	want := mssB * mssB / before
	if got != want {
		t.Errorf("CA increment = %d, want %d", got, want)
	}
}

func TestWindowLimitsSending(t *testing.T) {
	env := senderEnv(t)
	mssB := env.ep.cfg.MSS
	pump(t, env, 2) // fills initial cwnd of 2
	if env.ep.HasDataToSend() {
		t.Error("window should be closed at cwnd limit")
	}
	if f := env.ep.NextDataFrame(0); f != nil {
		t.Error("frame sent beyond window")
	}
	env.ep.Input(ackSeg(iss + uint32(mssB)))
	if !env.ep.HasDataToSend() {
		t.Error("window should reopen after ACK")
	}
}

func TestAppLimitStopsSender(t *testing.T) {
	env := senderEnv(t)
	env.ep.SetAppLimit(100)
	f := env.ep.NextDataFrame(0)
	if f == nil {
		t.Fatal("no frame for limited app data")
	}
	p := mustParse(t, f)
	if len(p.Payload) != 100 {
		t.Errorf("payload = %d bytes, want 100", len(p.Payload))
	}
	if env.ep.HasDataToSend() {
		t.Error("sender should be app-limited")
	}
}

func TestFastRetransmitOnTripleDupAck(t *testing.T) {
	env := senderEnv(t)
	env.ep.cwnd = 20 * env.ep.cfg.MSS
	pump(t, env, 10)
	var retx [][]byte
	env.ep.OnRetransmit = func(f []byte) { retx = append(retx, f) }

	una := env.ep.SndUna()
	for i := 0; i < 3; i++ {
		env.ep.Input(ackSeg(una))
	}
	if env.ep.Stats().FastRetransmits != 1 {
		t.Fatalf("FastRetransmits = %d, want 1", env.ep.Stats().FastRetransmits)
	}
	if len(retx) != 1 {
		t.Fatalf("retransmissions = %d, want 1", len(retx))
	}
	p := mustParse(t, retx[0])
	if p.TCP.Seq != una {
		t.Errorf("retransmit seq = %d, want %d", p.TCP.Seq, una)
	}
	// cwnd = ssthresh + 3 MSS (RFC 2581).
	wantSS := maxInt(10*env.ep.cfg.MSS/2, 2*env.ep.cfg.MSS)
	if env.ep.ssthresh != wantSS {
		t.Errorf("ssthresh = %d, want %d", env.ep.ssthresh, wantSS)
	}
	if env.ep.Cwnd() != wantSS+3*env.ep.cfg.MSS {
		t.Errorf("cwnd = %d, want %d", env.ep.Cwnd(), wantSS+3*env.ep.cfg.MSS)
	}
}

func TestFastRecoveryFullAckDeflates(t *testing.T) {
	env := senderEnv(t)
	env.ep.cwnd = 20 * env.ep.cfg.MSS
	pump(t, env, 10)
	env.ep.OnRetransmit = func([]byte) {}
	una := env.ep.SndUna()
	for i := 0; i < 3; i++ {
		env.ep.Input(ackSeg(una))
	}
	ss := env.ep.ssthresh
	// Full cumulative ACK ends recovery.
	env.ep.Input(ackSeg(env.ep.SndNxt()))
	if env.ep.inFastRec {
		t.Error("still in fast recovery after full ACK")
	}
	if env.ep.Cwnd() != ss {
		t.Errorf("cwnd = %d, want deflated to ssthresh %d", env.ep.Cwnd(), ss)
	}
	if env.ep.SndUna() != env.ep.SndNxt() {
		t.Error("not all data acked")
	}
}

func TestRTOCollapsesWindow(t *testing.T) {
	env := senderEnv(t)
	env.ep.cwnd = 10 * env.ep.cfg.MSS
	pump(t, env, 5)
	var retx int
	env.ep.OnRetransmit = func([]byte) { retx++ }
	deadline := env.ep.NextTimeout()
	if deadline == 0 {
		t.Fatal("RTO not armed with data in flight")
	}
	env.now = deadline
	env.ep.OnTimeout(env.now)
	if env.ep.Stats().RTOs != 1 {
		t.Fatalf("RTOs = %d, want 1", env.ep.Stats().RTOs)
	}
	if env.ep.Cwnd() != env.ep.cfg.MSS {
		t.Errorf("cwnd = %d, want 1 MSS after RTO", env.ep.Cwnd())
	}
	if retx != 1 {
		t.Errorf("retransmissions = %d, want 1", retx)
	}
}

func TestRTODisarmedWhenAllAcked(t *testing.T) {
	env := senderEnv(t)
	pump(t, env, 2)
	env.ep.Input(ackSeg(env.ep.SndNxt()))
	if env.ep.NextTimeout() != 0 {
		t.Error("RTO armed with no data in flight")
	}
	// Firing a stale timeout must be harmless.
	env.now = 1 << 40
	env.ep.OnTimeout(env.now)
	if env.ep.Stats().RTOs != 0 {
		t.Error("spurious RTO counted")
	}
}

func TestAckAboveSndNxtIgnored(t *testing.T) {
	env := senderEnv(t)
	pump(t, env, 2)
	before := env.ep.Cwnd()
	env.ep.Input(ackSeg(env.ep.SndNxt() + 5000))
	if env.ep.Cwnd() != before {
		t.Error("bogus ACK changed cwnd")
	}
	if env.ep.SndUna() == env.ep.SndNxt()+5000 {
		t.Error("bogus ACK advanced sndUna")
	}
}

func TestDataFrameContents(t *testing.T) {
	env := senderEnv(t)
	env.ep.cfg.Source = func(seq uint32, b []byte) uint16 {
		for i := range b {
			b[i] = byte(seq + uint32(i))
		}
		return checksum.Sum(b)
	}
	f := env.ep.NextDataFrame(0)
	p := mustParse(t, f)
	if p.TCP.Seq != iss {
		t.Errorf("seq = %d, want ISS", p.TCP.Seq)
	}
	if len(p.Payload) != env.ep.cfg.MSS {
		t.Errorf("payload = %d, want MSS", len(p.Payload))
	}
	for i, b := range p.Payload[:16] {
		if b != byte(iss+uint32(i)) {
			t.Fatalf("payload byte %d = %d, not from Source", i, b)
		}
	}
	if !p.TCP.TimestampOnly {
		t.Error("data frame missing timestamp-only options")
	}
}

func TestRetransmitRebuildsSameSegment(t *testing.T) {
	env := senderEnv(t)
	env.ep.cfg.Source = func(seq uint32, b []byte) uint16 {
		for i := range b {
			b[i] = byte(seq + uint32(i))
		}
		return checksum.Sum(b)
	}
	first := env.ep.NextDataFrame(0)
	env.ep.NextDataFrame(0)
	var retx []byte
	env.ep.OnRetransmit = func(f []byte) { retx = f }
	una := env.ep.SndUna()
	for i := 0; i < 3; i++ {
		env.ep.Input(ackSeg(una))
	}
	if retx == nil {
		t.Fatal("no retransmission")
	}
	pOrig := mustParse(t, first)
	pRetx := mustParse(t, retx)
	if pRetx.TCP.Seq != pOrig.TCP.Seq {
		t.Errorf("retransmit seq %d != original %d", pRetx.TCP.Seq, pOrig.TCP.Seq)
	}
	if string(pRetx.Payload) != string(pOrig.Payload) {
		t.Error("retransmitted payload differs from original")
	}
}

// Property: for any ACK pattern (random splits of the byte range into
// cumulative ACK points), processing them one at a time or as FragAcks of
// one segment yields identical cwnd and sndUna.
func TestPerFragmentAckEquivalence_Quick(t *testing.T) {
	f := func(splits []uint8) bool {
		if len(splits) == 0 || len(splits) > 30 {
			return true
		}
		build := func() *testEnv {
			env := senderEnv(t)
			env.ep.cwnd = 64 * env.ep.cfg.MSS
			for i := 0; i < 40; i++ {
				env.ep.NextDataFrame(0)
			}
			return env
		}
		// Derive an increasing ACK sequence from the random splits.
		iss := uint32(1)
		var acks []uint32
		cum := uint32(0)
		for _, s := range splits {
			cum += uint32(s%40) * 73
			a := iss + cum
			if len(acks) == 0 || a != acks[len(acks)-1] {
				acks = append(acks, a)
			}
		}
		max := uint32(40 * 1448)
		for i := range acks {
			if acks[i]-iss > max {
				acks[i] = iss + max
			}
		}

		one := build()
		for _, a := range acks {
			one.ep.Input(ackSeg(a))
		}
		agg := build()
		agg.ep.Input(Segment{
			Hdr:        tcpwire.Header{Ack: acks[len(acks)-1], Flags: tcpwire.FlagACK, Window: 65535},
			FragAcks:   acks,
			NetPackets: len(acks),
			Aggregated: true,
		})
		return one.ep.Cwnd() == agg.ep.Cwnd() && one.ep.SndUna() == agg.ep.SndUna()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
