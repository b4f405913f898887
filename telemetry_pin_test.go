package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/telemetry"
)

// TestTelemetryOutputsPinned pins what the telemetry itself reports, not
// just that it leaves the run alone (TestTelemetryZeroPerturbation): for a
// multi-queue Xen shape and a multi-queue native shape, the SHA-256 of the
// JSON LatencyReport and of the Chrome trace of the drained spans must
// stay as recorded. A change to how samples and spans are collected must
// leave both byte-identical; only a change to the model may move them.
func TestTelemetryOutputsPinned(t *testing.T) {
	want := map[string]struct{ latency, trace string }{
		"xen/2q": {
			latency: "246d5742dac9205ec7df0d0359394bd1a2ef2e10f6995252d65ce0a8079d8ac5",
			trace:   "6795c89a4349a18d42628823208a17d8c0cd0ea03df22c9bf26c1374dc824aec",
		},
		"rss/8nic-4q": {
			latency: "1ee97ca5814df990a46125c45a95bb67bef274568498c4d19c6f79c5e19a4bf4",
			trace:   "bc79d55ae9a86f12544c3f665b5280079af2183f58bef8fcd7852fe76f881c98",
		},
	}
	shapes := goldenShapes()
	for name, pin := range want {
		cfg, pin := shapes[name], pin
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg.DurationNs = 20_000_000
			cfg.WarmupNs = 10_000_000
			var spans []Span
			cfg.Telemetry = tracedTelemetry(func(s []Span) { spans = s })
			res, err := RunStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Latency.E2E.Count == 0 || len(spans) == 0 {
				t.Fatalf("telemetry recorded nothing: %d e2e samples, %d spans", res.Latency.E2E.Count, len(spans))
			}
			latency, err := json.Marshal(res.Latency)
			if err != nil {
				t.Fatal(err)
			}
			var trace bytes.Buffer
			if err := telemetry.WriteChromeTrace(&trace, spans); err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(latency); got != pin.latency {
				t.Errorf("LatencyReport sha256 = %s, want %s", got, pin.latency)
			}
			if got := sha256Hex(trace.Bytes()); got != pin.trace {
				t.Errorf("Chrome trace sha256 = %s, want %s", got, pin.trace)
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
