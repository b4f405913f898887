package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestStreamConfigResolved checks that Resolved fills in exactly what a run
// would: resolving is idempotent, fills every default of a workload that is
// on, and running the resolved config gives the same result as running the
// config as written. The configs are golden shapes at the corpus's 30 ms
// window with 15 ms of warm-up: n1 Linux UP/Optimized (Connections at its
// default), rpc/incast-2q (Telemetry.Latency and the RPC sizes),
// steer/handoff-native (every steering knob set) and storm/fraction
// (PrefillSpreadNs at its default).
func TestStreamConfigResolved(t *testing.T) {
	bulk := DefaultStreamConfig(SystemNativeUP, OptFull)
	bulk.Queues = 1
	rpc := DefaultStreamConfig(SystemNativeSMP, OptFull)
	rpc.NICs = 2
	rpc.Queues = 2
	rpc.Connections = 16
	rpc.RPC = RPCConfig{Enabled: true}
	handoff := DefaultStreamConfig(SystemNativeUP, OptFull)
	handoff.NICs = 4
	handoff.Queues = 4
	handoff.Connections = 120
	handoff.FlowSkew = 2.0
	handoff.ChurnIntervalNs = 4_000_000
	handoff.Steering = SteerConfig{
		Enabled: true, ARFS: true, RuleTableSlots: 16,
		EpochNs: 2_000_000, AppMigrateIntervalNs: 3_000_000,
	}
	storm := DefaultStreamConfig(SystemNativeUP, OptFull)
	storm.NICs = 4
	storm.Connections = 80
	storm.Queues = 2
	storm.TimeWaitReuse = true
	storm.RestartStorm = RestartStormConfig{AtNs: 20_000_000, PrefillTimeWait: 1000}

	for name, cfg := range map[string]StreamConfig{
		"bulk": bulk, "rpc": rpc, "steer/handoff-native": handoff, "storm/fraction": storm,
	} {
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
			if rpc := resolved.RPC; rpc.Enabled && rpc.MessageBytes == 0 {
				t.Errorf("resolved RPC config left its size unset: %+v", rpc)
			}
			if st := resolved.RestartStorm; st.AtNs > 0 && st.PrefillSpreadNs == 0 {
				t.Errorf("resolved storm config left a default unset: %+v", st)
			}
			if sc := resolved.Steering; sc.Enabled && sc.EpochNs == 0 || sc.ARFS && sc.RuleTableSlots == 0 {
				t.Errorf("resolved steering config left a default unset: %+v", sc)
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
