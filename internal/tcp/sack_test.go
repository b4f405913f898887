package tcp

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/tcpwire"
)

// sackAck builds a pure duplicate ACK carrying SACK blocks, the shape a
// SACK receiver emits while a hole is outstanding.
func sackAck(ack uint32, blocks ...tcpwire.SACKBlock) Segment {
	s := ackSeg(ack)
	s.Hdr.SetSACKBlocks(blocks)
	return s
}

// sackSenderEnv is a SACK-enabled sender with 10 MSS in flight.
func sackSenderEnv(t *testing.T) *testEnv {
	t.Helper()
	env := newEnv(t, func(c *Config) { c.SACK = true })
	env.ep.SetAppLimit(^uint64(0))
	env.ep.sndWnd = 1 << 20
	env.ep.cwnd = 20 * env.ep.cfg.MSS
	pump(t, env, 10)
	return env
}

func TestReceiverSACKBlocksOnDupAck(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.SACK = true })
	env.ep.Input(dataSeg(1, 1, mss(1448)))    // in order, ACK delayed
	env.ep.Input(dataSeg(2897, 1, mss(1448))) // hole at 1449
	if len(env.out) != 1 {
		t.Fatalf("out = %d frames, want 1 immediate dup-ACK", len(env.out))
	}
	p := mustParse(t, env.out[0].Head)
	if p.TCP.Ack != 1449 {
		t.Errorf("dup-ACK ack = %d, want 1449", p.TCP.Ack)
	}
	want := tcpwire.SACKBlock{Start: 2897, End: 4345}
	if len(p.TCP.SACKBlocks()) != 1 || p.TCP.SACKBlocks()[0] != want {
		t.Fatalf("SACK blocks = %+v, want [%+v]", p.TCP.SACKBlocks(), want)
	}
	if env.ep.Stats().SACKBlocksOut != 1 {
		t.Errorf("SACKBlocksOut = %d, want 1", env.ep.Stats().SACKBlocksOut)
	}

	// A second out-of-order range goes to the front (RFC 2018 order).
	env.ep.Input(dataSeg(5793, 1, mss(1448)))
	p = mustParse(t, env.out[1].Head)
	wantOrder := []tcpwire.SACKBlock{{Start: 5793, End: 7241}, {Start: 2897, End: 4345}}
	if len(p.TCP.SACKBlocks()) != 2 || p.TCP.SACKBlocks()[0] != wantOrder[0] || p.TCP.SACKBlocks()[1] != wantOrder[1] {
		t.Errorf("SACK blocks = %+v, want most-recent-first %+v", p.TCP.SACKBlocks(), wantOrder)
	}
	env.freeOut()
}

func TestReceiverSACKPrunedAfterFill(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.SACK = true })
	env.ep.Input(dataSeg(1, 1, mss(1448)))
	env.ep.Input(dataSeg(2897, 1, mss(1448))) // hole at 1449
	env.ep.Input(dataSeg(5793, 1, mss(1448))) // second range
	env.ep.Input(dataSeg(1449, 1, mss(1448))) // fill: drains through 4345
	if env.ep.RcvNxt() != 4345 {
		t.Fatalf("RcvNxt = %d, want 4345 after drain", env.ep.RcvNxt())
	}
	last := env.out[len(env.out)-1]
	p := mustParse(t, last.Head)
	// The filling segment is the second full in-order segment, so the ACK
	// is queued at its own end (2897); the OOO drain past it only arms the
	// delayed-ACK counter. Block pruning, though, runs at build time
	// against the final rcvNxt: the drained range must be gone and the
	// still-missing one kept.
	if p.TCP.Ack != 2897 {
		t.Fatalf("ack = %d, want 2897", p.TCP.Ack)
	}
	want := tcpwire.SACKBlock{Start: 5793, End: 7241}
	if len(p.TCP.SACKBlocks()) != 1 || p.TCP.SACKBlocks()[0] != want {
		t.Errorf("SACK blocks after fill = %+v, want [%+v]", p.TCP.SACKBlocks(), want)
	}
	env.freeOut()
}

func TestReceiverSACKCoalescesAdjacent(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.SACK = true })
	env.ep.Input(dataSeg(1, 1, mss(1448)))
	env.ep.Input(dataSeg(5793, 1, mss(1448)))
	env.ep.Input(dataSeg(4345, 1, mss(1448))) // touches the queued range
	last := env.out[len(env.out)-1]
	p := mustParse(t, last.Head)
	want := tcpwire.SACKBlock{Start: 4345, End: 7241}
	if len(p.TCP.SACKBlocks()) != 1 || p.TCP.SACKBlocks()[0] != want {
		t.Errorf("SACK blocks = %+v, want coalesced [%+v]", p.TCP.SACKBlocks(), want)
	}
	env.freeOut()
}

func TestReceiverNoSACKWithoutConfig(t *testing.T) {
	env := newEnv(t, nil) // SACK off: dup ACKs must stay plain
	env.ep.Input(dataSeg(1, 1, mss(1448)))
	env.ep.Input(dataSeg(2897, 1, mss(1448)))
	p := mustParse(t, env.out[0].Head)
	if len(p.TCP.SACKBlocks()) != 0 {
		t.Errorf("SACK blocks emitted with SACK disabled: %+v", p.TCP.SACKBlocks())
	}
	if env.ep.Stats().SACKBlocksOut != 0 {
		t.Errorf("SACKBlocksOut = %d, want 0", env.ep.Stats().SACKBlocksOut)
	}
	env.freeOut()
}

func TestScoreboardPipeOpensWindow(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.SACK = true })
	env.ep.SetAppLimit(^uint64(0))
	env.ep.sndWnd = 1 << 20
	env.ep.cwnd = 10 * env.ep.cfg.MSS
	pump(t, env, 10)
	if env.ep.SendWindowAvail() != 0 {
		t.Fatal("window should be closed at cwnd limit")
	}
	mssB := uint32(env.ep.cfg.MSS)
	una := env.ep.SndUna()
	// One dup ACK sacking one segment: pipe shrinks by one MSS and
	// limited transmit admits another.
	env.ep.Input(sackAck(una, tcpwire.SACKBlock{Start: una + mssB, End: una + 2*mssB}))
	if got, want := env.ep.SendWindowAvail(), 2*env.ep.cfg.MSS; got != want {
		t.Errorf("avail = %d after 1 sacked + 1 dup ack, want %d", got, want)
	}
	if env.ep.sackedBytes != env.ep.cfg.MSS {
		t.Errorf("sackedBytes = %d, want one MSS", env.ep.sackedBytes)
	}
	if msg := env.ep.CheckAccounting(); msg != "" {
		t.Fatalf("accounting: %s", msg)
	}
	// Sending in the 1-2 dup-ack state is limited transmit.
	if f := env.ep.NextDataFrame(0); f == nil {
		t.Fatal("limited transmit frame not sent")
	}
	if env.ep.Stats().LimitedTransmits != 1 {
		t.Errorf("LimitedTransmits = %d, want 1", env.ep.Stats().LimitedTransmits)
	}
	// A full cumulative ACK releases every scoreboard byte.
	env.ep.Input(ackSeg(env.ep.SndNxt()))
	if env.ep.sackedBytes != 0 {
		t.Errorf("sackedBytes = %d after full ACK, want 0", env.ep.sackedBytes)
	}
	if msg := env.ep.CheckAccounting(); msg != "" {
		t.Fatalf("accounting after full ACK: %s", msg)
	}
	env.freeOut()
}

func TestNoPipeArithmeticWithSACKOff(t *testing.T) {
	env := senderEnv(t) // SACK off
	env.ep.cwnd = 4 * env.ep.cfg.MSS
	pump(t, env, 4)
	una := env.ep.SndUna()
	env.ep.Input(ackSeg(una))
	env.ep.Input(ackSeg(una))
	if got := env.ep.SendWindowAvail(); got != 0 {
		t.Errorf("avail = %d with SACK off after dup acks, want 0 (no limited transmit)", got)
	}
	if env.ep.Stats().LimitedTransmits != 0 {
		t.Errorf("LimitedTransmits = %d with SACK off", env.ep.Stats().LimitedTransmits)
	}
}

// TestScoreboardHoleRetransmit drives the full selective-recovery arc:
// fast retransmit of the first hole, a scoreboard-driven retransmission
// of the second, refusal to re-retransmit while a retransmission is
// plausibly in flight, and the staleness rule that finally re-sends a
// hole whose retransmission was itself lost.
func TestScoreboardHoleRetransmit(t *testing.T) {
	env := sackSenderEnv(t)
	una := env.ep.SndUna()
	mssB := uint32(env.ep.cfg.MSS)
	blk := func(k uint32) tcpwire.SACKBlock {
		return tcpwire.SACKBlock{Start: una + k*mssB, End: una + (k+1)*mssB}
	}
	var retx []uint32
	env.ep.OnRetransmit = func(f []byte) { retx = append(retx, mustParse(t, f).TCP.Seq) }

	// Segments 0 and 2 lost; 1, 3, 4 sacked by three dup ACKs.
	env.ep.Input(sackAck(una, blk(1)))
	env.ep.Input(sackAck(una, blk(3)))
	env.ep.Input(sackAck(una, blk(4)))
	if env.ep.Stats().FastRetransmits != 1 {
		t.Fatalf("FastRetransmits = %d, want 1", env.ep.Stats().FastRetransmits)
	}
	if len(retx) != 1 || retx[0] != una {
		t.Fatalf("retx = %v, want fast retransmit of %d", retx, una)
	}

	// Fourth dup ACK: segment 0 was just retransmitted (skip), segment 1
	// is sacked (skip), segment 2 is the provably lost hole.
	env.ep.Input(sackAck(una, blk(5)))
	if env.ep.Stats().SACKRetransmits != 1 {
		t.Fatalf("SACKRetransmits = %d, want 1", env.ep.Stats().SACKRetransmits)
	}
	if len(retx) != 2 || retx[1] != una+2*mssB {
		t.Fatalf("retx = %v, want hole fill at %d", retx, una+2*mssB)
	}

	// With an RTT estimate, both holes' retransmissions are still within
	// the srtt+4·rttvar window: no re-retransmission yet.
	env.ep.srttNs = 1_000_000
	env.ep.rttvarNs = 100_000
	env.ep.Input(sackAck(una, blk(6)))
	if len(retx) != 2 {
		t.Fatalf("retx = %v, re-retransmitted while still in flight", retx)
	}

	// Past the window, the earliest hole is eligible again: its
	// retransmission was lost too, and the RTO floor is 200 ms away.
	env.now += 2_000_000
	env.ep.Input(sackAck(una, blk(7)))
	if len(retx) != 3 || retx[2] != una {
		t.Fatalf("retx = %v, want stale hole %d re-retransmitted", retx, una)
	}
	if env.ep.Stats().SACKRetransmits != 2 {
		t.Errorf("SACKRetransmits = %d, want 2", env.ep.Stats().SACKRetransmits)
	}
	if msg := env.ep.CheckAccounting(); msg != "" {
		t.Fatalf("accounting: %s", msg)
	}
	env.freeOut()
}

func TestRTOClearsScoreboard(t *testing.T) {
	env := sackSenderEnv(t)
	una := env.ep.SndUna()
	mssB := uint32(env.ep.cfg.MSS)
	env.ep.OnRetransmit = func([]byte) {}
	env.ep.Input(sackAck(una, tcpwire.SACKBlock{Start: una + mssB, End: una + 3*mssB}))
	if env.ep.sackedBytes != 2*env.ep.cfg.MSS {
		t.Fatalf("sackedBytes = %d, want 2 MSS", env.ep.sackedBytes)
	}
	env.now = env.ep.NextTimeout()
	env.ep.OnTimeout(env.now)
	if env.ep.Stats().RTOs != 1 {
		t.Fatalf("RTOs = %d, want 1", env.ep.Stats().RTOs)
	}
	// RFC 2018: after an RTO the receiver may have reneged — the
	// scoreboard must be discarded wholesale.
	if env.ep.sackedBytes != 0 {
		t.Errorf("sackedBytes = %d after RTO, want 0 (reneging rule)", env.ep.sackedBytes)
	}
	if msg := env.ep.CheckAccounting(); msg != "" {
		t.Fatalf("accounting: %s", msg)
	}
	env.freeOut()
}

// BenchmarkEndpointInputSACK measures a SACK sender's ACK input: each
// iteration sends one segment and takes an ACK that advances SND.UNA by
// one MSS while SACKing the newest segment, so the scoreboard scan runs
// over an eight-segment flight.
func BenchmarkEndpointInputSACK(b *testing.B) {
	ep, alloc := pooledSender(b, buf.NewPool(), func(c *Config) { c.SACK = true })
	mss := uint32(ep.cfg.MSS)
	for i := 0; i < 8; i++ {
		alloc.Release(ep.NextDataFrame(0))
	}
	var acks [1]uint32
	var blocks [1]tcpwire.SACKBlock
	seg := Segment{
		Hdr:        tcpwire.Header{Flags: tcpwire.FlagACK, Window: 65535},
		FragAcks:   acks[:],
		NetPackets: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc.Release(ep.NextDataFrame(0))
		acks[0] = ep.SndUna() + mss
		seg.Hdr.Ack = acks[0]
		blocks[0] = tcpwire.SACKBlock{Start: ep.SndNxt() - mss, End: ep.SndNxt()}
		seg.Hdr.SetSACKBlocks(blocks[:])
		ep.Input(seg)
	}
	b.StopTimer()
	if ep.Stats().SACKBlocksIn == 0 {
		b.Fatal("no SACK block reached the scoreboard")
	}
}
