package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// runAtTestScale runs w through the benchmark's own runner at test scale
// and returns each printed metric's unit and the final report.
func runAtTestScale(t *testing.T, w workload, trace bool) (map[string]string, report) {
	t.Helper()
	var out bytes.Buffer
	ok := runWorkload(w, options{seed: 1, trace: trace, traceDir: t.TempDir(), testScale: true}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not the report: %v", w.name, err)
	}
	if !ok || rep.Failed != 0 || !rep.Correct {
		t.Fatalf("%s: %d of %d runs failed:\n%s", w.name, rep.Failed, rep.Attempted, out.String())
	}
	units := map[string]string{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 5 && f[0] == "metric" {
			units[f[2]] = f[4]
		}
	}
	return units, rep
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	everywhere := []string{"host_frames_per_s", "host_peak_rss_mib", "failed_frac"}
	applies := map[string][]string{
		"paper-xen":  {"paper_err_pct"},
		"rpc-incast": {"sim_rtt_p50_us", "sim_rtt_p999_us", "sim_rpc_rounds_per_s"},
	}
	reported := map[string]metricDef{}
	for _, d := range endToEndReported {
		reported[d.name] = d
	}
	for _, w := range workloads {
		units, rep := runAtTestScale(t, w, false)
		want := append([]metricDef(nil), endToEnd...)
		for _, name := range append(everywhere, applies[w.name]...) {
			want = append(want, reported[name])
		}
		for _, d := range want {
			if units[d.name] != d.unit {
				t.Errorf("%s: metric %s printed with unit %q, want %q", w.name, d.name, units[d.name], d.unit)
			}
		}
		if len(units) != len(want) {
			t.Errorf("%s: printed %d metrics, want %d", w.name, len(units), len(want))
		}
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: report carries %d metrics, want %d", w.name, len(rep.Metrics), len(endToEnd))
		}
	}
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	w, err := findWorkload("faults-churn")
	if err != nil {
		t.Fatal(err)
	}
	units, rep := runAtTestScale(t, w, true)
	for _, d := range perLayer() {
		if units[d.name] != d.unit {
			t.Errorf("metric %s printed with unit %q, want %q", d.name, units[d.name], d.unit)
		}
	}
	if len(rep.Metrics) != len(perLayer()) {
		t.Errorf("report carries %d metrics, want %d", len(rep.Metrics), len(perLayer()))
	}
}

func TestDoctoredResultCountsAsFailure(t *testing.T) {
	var res repro.StreamResult
	res.Frames, res.ThroughputMbps, res.LinkLimitedMbps = 100, 900, 941
	res.AggStats.FramesIn, res.AggStats.HostOut, res.AggStats.Coalesced = 100, 10, 90
	tl := &tally{log: io.Discard}
	tl.record("sound", checkIdentities(res, true))
	res.AggStats.FramesIn++
	tl.record("doctored", checkIdentities(res, true))
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 2 and 1", tl.attempted, tl.failed)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for _, w := range b.Workloads {
		gotW = append(gotW, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		wantW = append(wantW, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads:\n got %q\nwant %q", gotW, wantW)
	}
	var gotE, wantE []metricDef
	for _, m := range b.EndToEnd {
		gotE = append(gotE, metricDef{name: m.Name, unit: m.Unit, better: m.Better, bound: m.Bound})
	}
	for _, d := range endToEnd {
		wantE = append(wantE, metricDef{name: d.name, unit: d.unit, better: d.better, bound: d.bound})
	}
	if !reflect.DeepEqual(gotE, wantE) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", gotE, wantE)
	}
	var gotL, wantL []string
	for _, m := range b.PerLayer {
		gotL = append(gotL, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, d := range perLayer() {
		wantL = append(wantL, d.name+" "+d.unit+" "+d.better)
	}
	if !reflect.DeepEqual(gotL, wantL) {
		t.Errorf("per_layer:\n got %q\nwant %q", gotL, wantL)
	}
}
