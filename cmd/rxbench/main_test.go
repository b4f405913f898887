package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro"
)

// TestJSONReport runs Figure 3 and one rr incast point with -json at a
// 5 ms window and 5 ms of warm-up, and checks that every recorded run
// identifies itself: its config is the resolved config the run used (so
// rerunning it reproduces the recorded result byte for byte), Connections
// carries its default, and rr points carry their message size.
func TestJSONReport(t *testing.T) {
	*duration, *warmup, *jsonOut = 5*time.Millisecond, 5*time.Millisecond, true
	runs = nil

	curExperiment = "fig3"
	fig3()
	curExperiment = "rr"
	rr := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptFull)
	rr.NICs = 1
	rr.Connections = 4
	rr.RPC = repro.RPCConfig{Enabled: true, MessageBytes: 1448}
	stream(rr)

	var out bytes.Buffer
	emitJSON(&out)
	var report struct {
		Schema int
		Runs   []struct {
			Experiment string
			Config     repro.StreamConfig
			Result     json.RawMessage
			Error      string
		}
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != 1 {
		t.Errorf("schema = %d, want 1", report.Schema)
	}
	if len(report.Runs) != 2 {
		t.Fatalf("%d runs recorded, want 2", len(report.Runs))
	}
	for _, run := range report.Runs {
		if run.Error != "" {
			t.Errorf("%s: run failed: %s", run.Experiment, run.Error)
			continue
		}
		res, err := repro.RunStream(run.Config)
		if err != nil {
			t.Fatalf("%s: rerunning the recorded config: %v", run.Experiment, err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, run.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: recorded result differs from a rerun of the recorded config", run.Experiment)
		}
		switch run.Experiment {
		case "fig3":
			if run.Config.Connections != 5 {
				t.Errorf("fig3: config.Connections = %d, want the resolved 5", run.Config.Connections)
			}
		case "rr":
			if run.Config.RPC.MessageBytes != 1448 {
				t.Errorf("rr: config.RPC.MessageBytes = %d, want 1448", run.Config.RPC.MessageBytes)
			}
		}
	}
}
