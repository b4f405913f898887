package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro"
	"repro/internal/cycles"
	"repro/internal/telemetry"
)

const (
	// The traced run makes at least minTracedReps traced reps after its
	// untraced one, and keeps going until they have taken traceBudget (or
	// the run's own budget, if larger).
	minTracedReps = 3
	traceBudget   = 8 * time.Second
	// profileHz is the CPU-profile sampling rate asked for. The kernel
	// delivers profiling signals at most once per scheduler tick, so on a
	// 250 Hz kernel the rate obtained is about 250 per busy thread, and
	// traceBudget is sized to yield 2,000 samples or more.
	profileHz = 500
)

// span is one host-time interval recorded around the benchmark's own calls:
// workload → rep → {setup, run}, and layer pass → call site → batch. Times
// are host nanoseconds since the workload started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = none
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps one workload's spans in memory until the run ends.
type spanLog struct {
	workload string
	t0       time.Time
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, t0: time.Now()}
}

// begin opens a span under parent and returns its id.
func (l *spanLog) begin(parent int, name string, rep int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Workload: l.workload, Rep: rep, Name: name,
		StartNs: time.Since(l.t0).Nanoseconds(),
	})
	return id
}

// end closes span id.
func (l *spanLog) end(id int) { l.spans[id-1].EndNs = time.Since(l.t0).Nanoseconds() }

// duration is span id's length in nanoseconds.
func (l *spanLog) duration(id int) int64 {
	s := l.spans[id-1]
	return s.EndNs - s.StartNs
}

// selfTimes sums self time (duration minus the children's durations) per
// span name.
func (l *spanLog) selfTimes() map[string]int64 {
	self := make([]int64, len(l.spans)+1)
	for _, s := range l.spans {
		self[s.ID] += s.EndNs - s.StartNs
		self[s.Parent] -= s.EndNs - s.StartNs
	}
	byName := map[string]int64{}
	for _, s := range l.spans {
		byName[s.Name] += self[s.ID]
	}
	return byName
}

// write stores the spans as spans.json and as a Chrome trace, trace.json,
// which it validates first.
func (l *spanLog) write(dir string) error {
	js, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), js, 0o644); err != nil {
		return err
	}
	chrome := make([]telemetry.Span, len(l.spans))
	for i, s := range l.spans {
		chrome[i] = telemetry.Span{Track: l.workload, Name: s.Name,
			StartNs: uint64(s.StartNs), DurNs: uint64(s.EndNs - s.StartNs)}
	}
	var b bytes.Buffer
	if err := telemetry.WriteChromeTrace(&b, chrome); err != nil {
		return err
	}
	if _, err := telemetry.ValidateChromeTrace(b.Bytes()); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), b.Bytes(), 0o644)
}

// runTraced runs one workload's traced pass: an untraced rep, traced reps
// under the CPU profile, then the layer pass. It returns the per-layer
// metrics, writes spans.json, trace.json and cpu.pprof under dir, and
// prints self time per span name to out.
func runTraced(w workload, o options, t *tally, dir string, out io.Writer) map[string]float64 {
	m := map[string]float64{}
	cfg := o.config(w)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.record("trace output", []string{err.Error()})
		return m
	}
	log := newSpanLog(w.name)
	root := log.begin(0, "workload", 0)

	// Rep i is a set-up-only run and then the full run. Rep 0 is untraced
	// and is the reference every traced rep must reproduce.
	var base measured
	rep := func(cfg repro.StreamConfig, i int) (measured, bool) {
		what := fmt.Sprintf("traced rep %d", i)
		if i == 0 {
			what = "untraced rep"
		}
		id := log.begin(root, "rep", i)
		defer log.end(id)
		s := log.begin(id, "setup", i)
		res, err := repro.RunStream(setupConfig(cfg))
		log.end(s)
		if err != nil {
			t.record(what+" set-up", []string{err.Error()})
		} else {
			t.record(what+" set-up", checkIdentities(res, false))
		}
		r, err := measure(cfg, log, id, i)
		if err != nil {
			t.record(what, []string{err.Error()})
			return r, false
		}
		problems := checkIdentities(r.res, true)
		if i > 0 && !reflect.DeepEqual(withoutLatency(r.res), withoutLatency(base.res)) {
			problems = append(problems, "zero perturbation: tracing changed the simulated result")
		}
		t.record(what, problems)
		return r, true
	}

	base, ok := rep(cfg, 0)
	if !ok {
		return m
	}
	tcfg := cfg
	tcfg.Telemetry.Latency = true
	profPath := filepath.Join(dir, "cpu.pprof")
	stop, err := startProfile(profPath)
	if err != nil {
		t.record("cpu profile", []string{err.Error()})
		return m
	}
	var walls []float64
	var traced repro.StreamResult
	start := time.Now()
	for i := 1; i <= minTracedReps || time.Since(start) < o.scaled(max(traceBudget, o.budget)); i++ {
		if r, ok := rep(tcfg, i); ok {
			walls = append(walls, r.wall.Seconds())
			traced = r.res
		}
	}
	if err := stop(); err != nil {
		t.record("cpu profile", []string{err.Error()})
	}

	hostFPS := float64(base.res.Frames) / base.wall.Seconds()
	lp := log.begin(root, "layer pass", 0)
	layers, err := runLayerPass(shapeOf(cfg, base.res), base.res, hostFPS, o, log, lp)
	log.end(lp)
	log.end(root)
	if err != nil {
		t.record("layer pass", []string{err.Error()})
	}
	for k, v := range layers {
		m[k] = v
	}
	for k, v := range modelMetrics(traced) {
		m[k] = v
	}
	prof, err := profileMetrics(profPath)
	if err != nil {
		t.record("cpu profile", []string{err.Error()})
	}
	for k, v := range prof {
		m[k] = v
	}
	if len(walls) > 0 {
		m["trace.overhead_pct"] = 100 * (median(walls)/base.wall.Seconds() - 1)
	}
	if err := log.write(dir); err != nil {
		t.record("trace output", []string{err.Error()})
	}
	printSelfTimes(out, w.name, log.selfTimes())
	return m
}

// printSelfTimes reports self time per span name, largest first.
func printSelfTimes(out io.Writer, workload string, self map[string]int64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(out, "self    %-13s %-26s %12.3f ms\n", workload, n, float64(self[n])/1e6)
	}
}

// startProfile starts the CPU profile at profileHz, writing to path.
// pprof.StartCPUProfile always asks for 100 Hz; setting the rate first
// makes that request a no-op (the runtime says so on standard error) and
// the profile runs at profileHz.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		runtime.SetCPUProfileRate(0)
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// modelMetrics returns the modelled receiver's per-layer metrics; all are
// deterministic.
func modelMetrics(res repro.StreamResult) map[string]float64 {
	m := map[string]float64{}
	for c := cycles.Category(0); c < cycles.NumCategories; c++ {
		m["model.cyc_pkt."+c.String()] = res.Breakdown.Get(c)
	}
	a := res.AggStats
	m["model.agg.factor"] = res.AggFactor
	m["model.agg.flush_limit_pct"] = pct(a.FlushLimit, a.HostOut)
	m["model.agg.flush_idle_pct"] = pct(a.FlushIdle, a.HostOut)
	m["model.agg.flush_mismatch_pct"] = pct(a.FlushMismatch, a.HostOut)
	m["model.agg.stitched_pct"] = pct(a.Stitched, a.Held)
	m["model.demux.cyc_per_pkt"] = res.DemuxCyclesPerPacket()
	m["model.demux.probe_max"] = float64(res.Demux.ProbeMax)
	tw := res.TimeWait
	m["model.tw.peak"] = float64(tw.Peak)
	m["model.tw.reuse_granted_pct"] = pct(tw.Reused, tw.Reused+tw.ReuseRefused)
	m["model.tcp.ooo_segs"] = float64(res.OOOSegs)
	m["model.tcp.fast_rtx"] = float64(res.Loss.FastRetransmits)
	m["model.tcp.rtos"] = float64(res.Loss.RTOs)
	m["model.tcp.sack_rtx"] = float64(res.Loss.SACKRetransmits)
	for s := telemetry.Stage(0); int(s) < telemetry.NumStages; s++ {
		var sum telemetry.Summary
		if int(s) < len(res.Latency.Stages) {
			sum = res.Latency.Stages[s].Summary
		}
		m["model.stage."+s.String()+".p50_us"] = float64(sum.P50Ns) / 1e3
		m["model.stage."+s.String()+".p99_us"] = float64(sum.P99Ns) / 1e3
	}
	over := 0
	for _, u := range res.PerCPUUtil {
		m["model.cpu.util_max"] = max(m["model.cpu.util_max"], u)
		if u > 1 {
			over++
		}
	}
	m["model.cpu.util_spread"] = res.UtilSpread()
	m["model.rtt.samples"] = float64(res.Latency.RTT.Count)
	m["model.audit.util_over_1"] = float64(over)
	m["model.audit.over_wire_pct"] = max(0, 100*(res.ThroughputMbps/res.LinkLimitedMbps-1))
	return m
}

// pct is 100·a/b (0 when b is 0).
func pct(a, b uint64) float64 { return 100 * ratio(a, b) }
