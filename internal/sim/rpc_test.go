package sim

import "testing"

// TestRPCReceiversNegotiateSACK runs the incast workload over lossy links
// with SACK on. The receiver endpoints must generate SACK blocks for the
// holes the loss leaves, so the senders see them: a receiver built without
// the run's TCP options would leave every block count at zero while the
// senders ran SACK-mode recovery.
func TestRPCReceiversNegotiateSACK(t *testing.T) {
	cfg := DefaultStreamConfig(SystemNativeSMP, OptFull)
	cfg.NICs = 2
	cfg.Queues = 2
	cfg.Connections = 4
	cfg.RPC = RPCConfig{Enabled: true, MessageBytes: 16 * 1448}
	cfg.Loss = LossConfig{OneIn: 200, Seed: 1}
	cfg.SACK = true
	cfg.DurationNs = 1_000_000_000
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostFrames == 0 {
		t.Fatal("no frame lost: the loss injector did not fire")
	}
	if res.Loss.SACKBlocksIn == 0 {
		t.Errorf("senders received no SACK blocks over %d lost frames (%d RPC rounds)",
			res.LostFrames, res.RPCRounds)
	}
}
