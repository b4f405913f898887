package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// goldenShapesFile holds the recorded serial StreamResult of every shape in
// goldenShapes(), at a 30 ms window with 15 ms of warm-up.
const goldenShapesFile = "testdata/golden_shapes.json"

// goldenShapes is the one corpus of workload shapes every equivalence test
// ranges over: the single-queue regression lock on every system, RSS
// multi-queue scaling, flow churn (moderate and many-flow), the reorder
// fault injector with a resequencing window (two and four NICs),
// connection-scale demux at 50k registered endpoints, wire corruption,
// uniform and burst loss, the multi-queue Xen paravirtual path and the RPC
// incast workload.
func goldenShapes() map[string]StreamConfig {
	shapes := map[string]StreamConfig{}

	for _, sys := range []SystemKind{SystemNativeUP, SystemNativeSMP, SystemXen} {
		for _, opt := range []OptLevel{OptNone, OptFull} {
			cfg := DefaultStreamConfig(sys, opt)
			cfg.Queues = 1
			shapes["n1/"+sys.String()+"/"+opt.String()] = cfg
		}
	}

	rss := DefaultStreamConfig(SystemNativeUP, OptNone)
	rss.NICs = 8
	rss.Queues = 4
	rss.Connections = 64
	rss.FlowSkew = 1.1
	shapes["rss/8nic-4q"] = rss

	churn := DefaultStreamConfig(SystemNativeSMP, OptFull)
	churn.NICs = 8
	churn.Queues = 4
	churn.Connections = 200
	churn.FlowSkew = 1.2
	churn.ChurnIntervalNs = 2_000_000
	shapes["churn/200flow"] = churn

	churn400 := DefaultStreamConfig(SystemNativeUP, OptFull)
	churn400.Connections = 400
	churn400.Queues = 4
	churn400.FlowSkew = 1.1
	churn400.ChurnIntervalNs = 2_000_000
	shapes["churn/400flow"] = churn400

	reorder := DefaultStreamConfig(SystemNativeSMP, OptAggregation)
	reorder.Queues = 2
	reorder.Connections = 12
	reorder.ReorderWindow = 8
	reorder.Reorder = ReorderConfig{OneIn: 7, Distance: 3}
	shapes["reorder/window8"] = reorder

	reorder4 := DefaultStreamConfig(SystemNativeUP, OptFull)
	reorder4.NICs = 4
	reorder4.Connections = 64
	reorder4.Queues = 4
	reorder4.Reorder = ReorderConfig{OneIn: 50, Distance: 1}
	reorder4.ReorderWindow = 8
	shapes["reorder/4nic"] = reorder4

	cs := DefaultStreamConfig(SystemNativeSMP, OptFull)
	cs.Queues = 4
	cs.Connections = 64
	cs.RegisteredFlows = 50_000
	shapes["connscale/open"] = cs

	corrupt := DefaultStreamConfig(SystemNativeUP, OptFull)
	corrupt.CorruptOneIn = 900
	shapes["corrupt/retransmit"] = corrupt

	loss := DefaultStreamConfig(SystemNativeUP, OptFull)
	loss.Loss = LossConfig{OneIn: 400, Seed: 3}
	loss.SACK = true
	shapes["loss/uniform-sack"] = loss

	burst := DefaultStreamConfig(SystemNativeSMP, OptFull)
	burst.Queues = 2
	burst.Connections = 8
	burst.Loss = LossConfig{BurstRate: 0.01}
	shapes["loss/burst-reno"] = burst

	xen := DefaultStreamConfig(SystemXen, OptFull)
	xen.Queues = 2
	xen.Connections = 16
	shapes["xen/2q"] = xen

	rpc := DefaultStreamConfig(SystemNativeSMP, OptFull)
	rpc.NICs = 2
	rpc.Queues = 2
	rpc.Connections = 16
	rpc.RPC = RPCConfig{Enabled: true}
	shapes["rpc/incast-2q"] = rpc

	return shapes
}

// TestGoldenShapes pins every shape of the corpus to its recorded result:
// the run's StreamResult, JSON-encoded, must equal the recorded encoding
// byte for byte — every counter, every per-CPU split and every float bit
// pattern (encoding/json writes the shortest representation that parses
// back to the same float64). The file changes only with a deliberate change
// to the model, never with a refactor of how the simulator executes it.
func TestGoldenShapes(t *testing.T) {
	raw, err := os.ReadFile(goldenShapesFile)
	if err != nil {
		t.Fatal(err)
	}
	var recorded map[string]json.RawMessage
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatalf("%s: %v", goldenShapesFile, err)
	}
	shapes := goldenShapes()
	for name := range recorded {
		if _, ok := shapes[name]; !ok {
			t.Errorf("%s records %q, which is not in the corpus", goldenShapesFile, name)
		}
	}
	for name, cfg := range shapes {
		cfg := cfg
		want, ok := recorded[name]
		t.Run(name, func(t *testing.T) {
			if !ok {
				t.Fatalf("%s has no record for this shape", goldenShapesFile)
			}
			t.Parallel()
			got, err := json.Marshal(shortStream(t, cfg))
			if err != nil {
				t.Fatal(err)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, compact.Bytes()) {
				t.Errorf("result drifted from %s in fields %v", goldenShapesFile, diffFields(t, got, compact.Bytes()))
			}
		})
	}
}

// diffFields names the top-level StreamResult fields whose encodings differ.
func diffFields(t *testing.T, got, want []byte) []string {
	t.Helper()
	var g, w map[string]any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	var fields []string
	for k := range g {
		if !reflect.DeepEqual(g[k], w[k]) {
			fields = append(fields, k)
		}
	}
	for k := range w {
		if _, ok := g[k]; !ok {
			fields = append(fields, k)
		}
	}
	sort.Strings(fields)
	return fields
}
