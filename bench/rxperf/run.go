package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro"
)

const (
	// minTimedReps is the number of timed reps a run makes at least; with
	// a time budget it keeps going until the budget is spent.
	minTimedReps = 3
	// Set-up is timed in a batch of at least one set-up before every rep,
	// each batch repeating it for setupBatch, and reported as the median
	// over all batches: the host's speed drifts over seconds, and batches
	// spread over the whole run sample that drift instead of one instant.
	setupBatch = 100 * time.Millisecond
)

// options are a benchmark invocation's settings.
type options struct {
	seed uint64
	// budget is the timed-rep budget: reps continue until it is spent
	// (0 = exactly minTimedReps reps).
	budget time.Duration
	// trace selects the traced pass, which writes its files under traceDir.
	trace    bool
	traceDir string
	// testScale shrinks every workload to 5 ms of warm-up and 5 ms of
	// measurement with at most 10k registered flows, and every time budget
	// to its minimum rep or call count (tests only).
	testScale bool
}

// config returns w's stream config under o.
func (o options) config(w workload) repro.StreamConfig {
	cfg := w.cfg()
	if o.testScale {
		cfg.WarmupNs, cfg.DurationNs = 5_000_000, 5_000_000
		cfg.RegisteredFlows = min(cfg.RegisteredFlows, 10_000)
	}
	return cfg
}

// scaled is the time budget d under o: zero at test scale.
func (o options) scaled(d time.Duration) time.Duration {
	if o.testScale {
		return 0
	}
	return d
}

// tally counts a workload run's attempted and failed simulator runs and
// reports each failure.
type tally struct {
	attempted, failed int
	log               io.Writer
}

// record counts one run; it fails when problems is non-empty.
func (t *tally) record(what string, problems []string) {
	t.attempted++
	if len(problems) == 0 {
		return
	}
	t.failed++
	for _, p := range problems {
		fmt.Fprintf(t.log, "FAIL %s: %s\n", what, p)
	}
}

// measured is one RunStream call: its simulated result and its host cost.
type measured struct {
	res     repro.StreamResult
	wall    time.Duration
	bytes   uint64 // MemStats.TotalAlloc delta
	mallocs uint64 // MemStats.Mallocs delta
}

// measure runs cfg once on a freshly collected heap and returns its host
// cost alongside the result. With a span log it records the call as span
// "run" of rep under parent.
func measure(cfg repro.StreamConfig, log *spanLog, parent, rep int) (measured, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var id int
	if log != nil {
		id = log.begin(parent, "run", rep)
	}
	start := time.Now()
	res, err := repro.RunStream(cfg)
	wall := time.Since(start)
	if log != nil {
		log.end(id)
	}
	runtime.ReadMemStats(&after)
	return measured{
		res:     res,
		wall:    wall,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
	}, err
}

// setupConfig is cfg cut down to its set-up: building the topology and
// assembling a result over 1 ns of virtual time.
func setupConfig(cfg repro.StreamConfig) repro.StreamConfig {
	cfg.WarmupNs, cfg.DurationNs = 0, 1
	return cfg
}

// checkedRep runs cfg, records it in t, and checks it against ref (nil for
// the first rep of a run, which becomes the reference).
func checkedRep(cfg repro.StreamConfig, ref *repro.StreamResult, what string, t *tally) (measured, bool) {
	r, err := measure(cfg, nil, 0, 0)
	if err != nil {
		t.record(what, []string{err.Error()})
		return r, false
	}
	problems := checkIdentities(r.res, true)
	if ref != nil {
		problems = append(problems, checkReplay(replayForm(*ref, cfg), replayForm(r.res, cfg))...)
	}
	t.record(what, problems)
	return r, len(problems) == 0
}

// replayForm is the part of a result that must replay exactly: all of it
// on RPC runs, whose latency is their output, and all but the latency
// telemetry on bulk runs.
func replayForm(res repro.StreamResult, cfg repro.StreamConfig) repro.StreamResult {
	if cfg.RPC.Enabled {
		return res
	}
	return withoutLatency(res)
}

// timeSetup times set-up alone, back to back for setupBatch (at least
// once), and returns each time in seconds. The heap is not collected in
// between: collecting what set-up allocated is part of its cost.
func timeSetup(cfg repro.StreamConfig, o options, t *tally) []float64 {
	cfg = setupConfig(cfg)
	var secs []float64
	start := time.Now()
	for len(secs) == 0 || time.Since(start) < o.scaled(setupBatch) {
		t0 := time.Now()
		res, err := repro.RunStream(cfg)
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			t.record("set-up", []string{err.Error()})
			continue
		}
		t.record("set-up", checkIdentities(res, false))
	}
	return secs
}

// runEndToEnd runs one workload's end-to-end pass: one discarded warm-up
// rep that is also the replay reference, then timed reps for the budget,
// each rep preceded by a batch of set-up timings. It returns every
// end-to-end metric that applies.
func runEndToEnd(w workload, o options, t *tally) map[string]float64 {
	cfg := o.config(w)
	m := map[string]float64{}
	setups := timeSetup(cfg, o, t)
	first, ok := checkedRep(cfg, nil, "warm-up rep", t)
	if !ok {
		return m
	}
	var fps, bpf, apf []float64
	start := time.Now()
	for i := 1; i <= minTimedReps || time.Since(start) < o.budget; i++ {
		setups = append(setups, timeSetup(cfg, o, t)...)
		r, _ := checkedRep(cfg, &first.res, fmt.Sprintf("timed rep %d", i), t)
		if r.res.Frames == 0 {
			continue
		}
		frames := float64(r.res.Frames)
		fps = append(fps, frames/r.wall.Seconds())
		bpf = append(bpf, float64(r.bytes)/frames)
		apf = append(apf, float64(r.mallocs)/frames)
	}
	m["setup_s"] = median(setups)
	m["host_frames_per_s"] = median(fps)
	m["host_alloc_bytes_per_frame"] = median(bpf)
	m["host_allocs_per_frame"] = median(apf)
	m["host_peak_rss_mib"] = peakRSSMiB()
	for k, v := range simMetrics(cfg, first.res) {
		m[k] = v
	}
	return m
}

// simMetrics returns the modelled receiver's end-to-end metrics, which are
// exact.
func simMetrics(cfg repro.StreamConfig, res repro.StreamResult) map[string]float64 {
	m := map[string]float64{
		"sim_mbps":            res.ThroughputMbps,
		"sim_cycles_per_byte": res.CyclesPerByte(),
		"sim_cpu_util":        res.CPUUtil,
	}
	if cfg.RPC.Enabled {
		m["sim_rtt_p50_us"] = float64(res.Latency.RTT.P50Ns) / 1e3
		m["sim_rtt_p999_us"] = float64(res.Latency.RTT.P999Ns) / 1e3
		m["sim_rpc_rounds_per_s"] = float64(res.RPCRounds) / (float64(res.DurationNs) / 1e9)
	}
	if cfg.System == repro.SystemXen && cfg.Opt == repro.OptFull {
		m["paper_err_pct"] = 100 * math.Abs(res.ThroughputMbps-paperXenOptimizedMbps) / paperXenOptimizedMbps
	}
	return m
}

// peakRSSMiB is this process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4), the one the benchmark's spread
// rule is stated in. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
