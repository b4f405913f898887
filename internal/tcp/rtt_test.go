package tcp

import (
	"testing"
)

// rttSenderEnv is a default sender with the clock started away from zero
// so sent-at stamps are valid.
func rttSenderEnv(t *testing.T) *testEnv {
	t.Helper()
	env := senderEnv(t)
	env.now = 1_000
	return env
}

func TestRTTFirstSampleSeedsEstimator(t *testing.T) {
	env := rttSenderEnv(t)
	pump(t, env, 1)
	const rtt = 3_000_000
	env.now += rtt
	env.ep.Input(ackSeg(env.ep.SndNxt()))
	if got := env.ep.SRTT(); got != rtt {
		t.Errorf("SRTT = %d after first sample, want %d", got, rtt)
	}
	if env.ep.rttvarNs != rtt/2 {
		t.Errorf("rttvar = %d, want %d (RFC 6298 init)", env.ep.rttvarNs, rtt/2)
	}
	// Sub-millisecond variance: the RTO stays at the 200 ms floor — the
	// very equality that keeps clean-run goldens identical to the old
	// fixed default.
	if got := env.ep.RTO(); got != MinRTONs {
		t.Errorf("RTO = %d, want floored at %d", got, MinRTONs)
	}
}

func TestRTTSmoothingFollowsRFC6298(t *testing.T) {
	env := rttSenderEnv(t)
	pump(t, env, 1)
	const r1 = 4_000_000
	env.now += r1
	env.ep.Input(ackSeg(env.ep.SndNxt()))

	pump(t, env, 1)
	const r2 = 8_000_000
	env.now += r2
	srtt, rttvar := env.ep.srttNs, env.ep.rttvarNs
	env.ep.Input(ackSeg(env.ep.SndNxt()))

	d := srtt - r2
	if r2 > srtt {
		d = r2 - srtt
	}
	wantVar := (3*rttvar + d) / 4
	wantSrtt := (7*srtt + r2) / 8
	if env.ep.srttNs != wantSrtt || env.ep.rttvarNs != wantVar {
		t.Errorf("smoothing: srtt %d rttvar %d, want %d %d",
			env.ep.srttNs, env.ep.rttvarNs, wantSrtt, wantVar)
	}
}

func TestRTTAboveFloorDrivesRTO(t *testing.T) {
	env := rttSenderEnv(t)
	pump(t, env, 1)
	const rtt = 100_000_000 // 100 ms: srtt + 4·rttvar = 300 ms > floor
	env.now += rtt
	env.ep.Input(ackSeg(env.ep.SndNxt()))
	if got, want := env.ep.RTO(), uint64(rtt+4*rtt/2); got != want {
		t.Errorf("RTO = %d, want srtt+4·rttvar = %d", got, want)
	}
}

func TestKarnSkipsRetransmittedAndResetsBackoff(t *testing.T) {
	env := rttSenderEnv(t)
	pump(t, env, 1)
	env.ep.OnRetransmit = func([]byte) {}

	// RTO fires: the one outstanding segment is retransmitted and the
	// timeout backs off exponentially.
	env.now = env.ep.NextTimeout()
	env.ep.OnTimeout(env.now)
	if env.ep.Stats().RTOs != 1 {
		t.Fatalf("RTOs = %d, want 1", env.ep.Stats().RTOs)
	}
	if got := env.ep.RTO(); got != 2*uint64(MinRTONs) {
		t.Errorf("RTO after one timeout = %d, want doubled %d", got, 2*MinRTONs)
	}

	// The ACK of a retransmitted segment is ambiguous: no RTT sample
	// (Karn), but new data acked does reset the backoff.
	env.now += 5_000_000
	env.ep.Input(ackSeg(env.ep.SndNxt()))
	if env.ep.SRTT() != 0 {
		t.Errorf("SRTT = %d from a retransmitted segment's ACK, want 0 (Karn)", env.ep.SRTT())
	}
	if got := env.ep.RTO(); got != MinRTONs {
		t.Errorf("RTO after new-data ACK = %d, want backoff reset to %d", got, MinRTONs)
	}
}
