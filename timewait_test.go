package repro

import "testing"

// TestChurnTeardownHandshake: connection churn pays for teardown on the
// receive path — FIN processed, final ACK sent, endpoints linger in
// TIME_WAIT and are reaped — while throughput holds. Every entry is
// reaped or still lingering (Entered = Reaped + Len), and nothing leaves
// the table any other way.
func TestChurnTeardownHandshake(t *testing.T) {
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.Connections = 200
	cfg.Queues = 4
	cfg.FlowSkew = 1.1
	cfg.ChurnIntervalNs = 2_000_000
	cfg.DurationNs = 30_000_000
	cfg.WarmupNs = 15_000_000
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsTornDown == 0 {
		t.Fatal("churn never tore a flow down")
	}
	if res.TimeWait.Entered == 0 {
		t.Error("no teardown reached TIME_WAIT: FIN handshake not completing")
	}
	if res.TimeWait.Reaped == 0 {
		t.Error("no TIME_WAIT entry was reaped")
	}
	if tw := res.TimeWait; tw.Entered != tw.Reaped+uint64(tw.Len) {
		t.Errorf("TIME_WAIT accounting broken: Entered %d != Reaped %d + Len %d", tw.Entered, tw.Reaped, tw.Len)
	}
	if tw := res.TimeWait; tw.Reused != 0 || tw.ReuseRefused != 0 || tw.Evicted != 0 {
		t.Errorf("entries left the table other than by reap: %+v", tw)
	}
	if res.ThroughputMbps < 3000 {
		t.Errorf("churned throughput collapsed: %.0f Mb/s", res.ThroughputMbps)
	}
}
