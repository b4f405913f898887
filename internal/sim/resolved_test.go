package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestStreamConfigResolved checks that Resolved fills in exactly what a run
// would: resolving is idempotent, and running the resolved config gives the
// same result as running the config as written. The two configs are golden
// shapes (n1 Linux UP/Optimized, which leaves Connections at its default,
// and rpc/incast-2q, which leaves Telemetry.Latency off) at the corpus's
// 30 ms window with 15 ms of warm-up.
func TestStreamConfigResolved(t *testing.T) {
	bulk := DefaultStreamConfig(SystemNativeUP, OptFull)
	bulk.Queues = 1
	rpc := DefaultStreamConfig(SystemNativeSMP, OptFull)
	rpc.NICs = 2
	rpc.Queues = 2
	rpc.Connections = 16
	rpc.RPC = RPCConfig{Enabled: true}

	for name, cfg := range map[string]StreamConfig{"bulk": bulk, "rpc": rpc} {
		cfg.DurationNs = 30_000_000
		cfg.WarmupNs = 15_000_000
		t.Run(name, func(t *testing.T) {
			resolved := cfg.Resolved()
			if again := resolved.Resolved(); !reflect.DeepEqual(again, resolved) {
				t.Fatalf("resolving twice changed the config:\n%+v\n%+v", resolved, again)
			}
			if resolved.Connections <= 0 {
				t.Errorf("resolved Connections = %d, want positive", resolved.Connections)
			}
			if cfg.RPC.Enabled && !resolved.Telemetry.Latency {
				t.Error("resolved RPC config has latency telemetry off")
			}
			want := encodedRun(t, cfg)
			if got := encodedRun(t, resolved); !bytes.Equal(got, want) {
				t.Errorf("resolved config ran differently:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// encodedRun runs cfg and returns its JSON-encoded result.
func encodedRun(t *testing.T, cfg StreamConfig) []byte {
	t.Helper()
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
