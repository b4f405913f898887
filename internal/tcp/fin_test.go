package tcp

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/tcpwire"
)

// drainData pulls frames until the window closes, returning frames built.
func drainData(env *testEnv) [][]byte {
	var out [][]byte
	for {
		f := env.ep.NextDataFrame(0)
		if f == nil {
			return out
		}
		out = append(out, f)
	}
}

// TestAppCloseSendsFIN: after the closed application's bytes are handed
// off, the next transmission is a FIN consuming one sequence number.
func TestAppCloseSendsFIN(t *testing.T) {
	env := newEnv(t, nil)
	env.ep.SetAppLimit(1000)
	frames := drainData(env)
	if len(frames) != 1 {
		t.Fatalf("sent %d frames for 1000 bytes, want 1", len(frames))
	}
	if env.ep.NextDataFrame(0) != nil {
		t.Fatal("app-limited endpoint kept sending without a close")
	}

	env.ep.AppClose()
	if !env.ep.HasDataToSend() {
		t.Fatal("pending FIN not reported by HasDataToSend")
	}
	fin := env.ep.NextDataFrame(0)
	if fin == nil {
		t.Fatal("no FIN after AppClose")
	}
	p, err := packet.Parse(fin)
	if err != nil {
		t.Fatal(err)
	}
	if p.TCP.Flags&tcpwire.FlagFIN == 0 {
		t.Error("frame after AppClose lacks FIN")
	}
	if p.TCP.Seq != 1001 {
		t.Errorf("FIN seq = %d, want 1001 (after the 1000 data bytes)", p.TCP.Seq)
	}
	if got := env.ep.SndNxt(); got != 1002 {
		t.Errorf("SndNxt = %d: FIN must consume one sequence number", got)
	}
	if env.ep.NextDataFrame(0) != nil {
		t.Error("FIN sent twice")
	}
	if s := env.ep.Stats(); s.FinsOut != 1 {
		t.Errorf("FinsOut = %d, want 1", s.FinsOut)
	}
}

// TestFinAcked: the peer's ACK covering the FIN completes teardown.
func TestFinAcked(t *testing.T) {
	env := newEnv(t, nil)
	env.ep.SetAppLimit(1000)
	drainData(env)
	env.ep.AppClose()
	if env.ep.NextDataFrame(0) == nil {
		t.Fatal("no FIN")
	}
	env.ep.Input(ackSeg(1001)) // data acked, FIN not yet
	if env.ep.FinAcked() {
		t.Fatal("FinAcked before the FIN's sequence number was covered")
	}
	env.ep.Input(ackSeg(1002)) // covers the FIN
	if !env.ep.FinAcked() {
		t.Fatal("FinAcked not set by the covering ACK")
	}
	if env.ep.NextTimeout() != 0 {
		t.Errorf("RTO still armed after complete teardown")
	}
	env.freeOut()
}

// TestFinRetransmitOnRTO: an unacknowledged FIN retransmits with the FIN
// flag at the same sequence number.
func TestFinRetransmitOnRTO(t *testing.T) {
	env := newEnv(t, nil)
	var retx [][]byte
	env.ep.OnRetransmit = func(f []byte) { retx = append(retx, f) }
	env.ep.SetAppLimit(500)
	drainData(env)
	env.ep.AppClose()
	if env.ep.NextDataFrame(0) == nil {
		t.Fatal("no FIN")
	}
	env.ep.Input(ackSeg(501)) // data acked; FIN ack lost
	env.now += env.ep.RTO() + 1
	env.ep.OnTimeout(env.now)
	if len(retx) != 1 {
		t.Fatalf("RTO retransmitted %d frames, want 1 (the FIN)", len(retx))
	}
	p, err := packet.Parse(retx[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.TCP.Flags&tcpwire.FlagFIN == 0 || p.TCP.Seq != 501 {
		t.Errorf("retransmit flags %x seq %d, want FIN at 501", p.TCP.Flags, p.TCP.Seq)
	}
	if s := env.ep.Stats(); s.FinsOut != 2 {
		t.Errorf("FinsOut = %d, want 2 (original + retransmit)", s.FinsOut)
	}
	env.freeOut()
}

// TestRetransmittedFINReAcked: a receiver that already processed the FIN
// must re-ACK a retransmitted copy (the final ACK was lost), or the peer
// retransmits forever.
func TestRetransmittedFINReAcked(t *testing.T) {
	env := newEnv(t, nil)
	fin := dataSeg(1, 1, nil)
	fin.Payloads = nil
	fin.Hdr.Flags |= tcpwire.FlagFIN
	env.ep.Input(fin)
	if !env.ep.Closed() || env.ep.RcvNxt() != 2 {
		t.Fatal("first FIN not processed")
	}
	acks := len(env.out)
	dup := dataSeg(1, 1, nil)
	dup.Payloads = nil
	dup.Hdr.Flags |= tcpwire.FlagFIN
	env.ep.Input(dup)
	if len(env.out) <= acks {
		t.Error("retransmitted FIN not re-ACKed")
	}
	if s := env.ep.Stats(); s.FinsIn != 2 {
		t.Errorf("FinsIn = %d, want 2", s.FinsIn)
	}
	env.freeOut()
}
