// Command rxbench regenerates the tables and figures of "Optimizing TCP
// Receive Performance" (Menon & Zwaenepoel, USENIX ATC 2008) from the
// simulation. Run with no arguments for everything, or select one
// experiment:
//
//	rxbench -experiment fig7
//	rxbench -experiment table1 -duration 500ms
//
// With -json, the human-readable tables go to stderr and stdout carries
// one JSON report, the machine-readable form CI records as BENCH_*.json
// performance trajectories:
//
//	{"schema": 1, "runs": [{"experiment", "system", "opt", "config", "result", "error"}, ...]}
//
// Every stream run is one entry, in run order. config is the resolved
// StreamConfig the run used (StreamConfig.Resolved: defaults filled in), so
// any entry reruns as is; result is its StreamResult, encoded as the golden
// corpus (testdata/golden_shapes.json) encodes it. A failed run carries
// error instead of result. system and opt name the config's System and Opt.
// table1's request/response runs are not stream runs and have no entry.
//
// With -trace, the final stream run's span timeline is validated and
// written as a Chrome trace, and stderr reports each track's spans and busy
// share of the measured interval.
//
// # Profiling the simulator
//
// rxbench doubles as the profiling harness for the simulator's own hot
// path (wall-clock and allocations, not virtual cycles):
//
//	rxbench -experiment connscale -cpuprofile cpu.prof -memprofile mem.prof
//	go tool pprof -top cpu.prof
//	go tool pprof -top -sample_index=alloc_objects mem.prof
//
// The CPU profile covers the whole invocation; the heap profile is
// written after the final run (post-GC, so it shows live retention —
// use alloc_objects/alloc_space indices for cumulative churn). This is
// the loop that drove the scheduler's allocation overhaul: profile,
// kill the top allocation site, re-run the determinism suite, repeat.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/memmodel"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

var (
	experiment = flag.String("experiment", "all",
		"experiment to run: all, fig1, fig2, fig3, fig4, fig6, fig7, fig8, fig9, fig10, fig11, fig12, table1, limit1, rss, churn, steer, smallmsg, reorder, loss, restartstorm, connscale, rr")
	duration = flag.Duration("duration", 150*time.Millisecond, "measured virtual duration per run")
	warmup   = flag.Duration("warmup", 40*time.Millisecond, "virtual warm-up before measurement")
	sysFlag  = flag.String("sys", "up",
		"system for the rss, churn, steer, reorder, restartstorm, connscale and rr experiments: up, smp, xen (xen scales paravirtual I/O channels)")
	queueList = flag.String("queues", "1,2,4,8",
		"queue counts swept by the rss experiment (comma-separated); steer, reorder and restartstorm use the last entry")
	jsonOut = flag.Bool("json", false,
		"emit machine-readable JSON run records on stdout (tables move to stderr)")
	parallel = flag.Int("parallel", 1,
		"worker goroutines for the points of every sweep (rss, loss, restartstorm, connscale, rr); output order is deterministic")
	cpuProfile = flag.String("cpuprofile", "",
		"write a CPU profile of the whole invocation to this file")
	memProfile = flag.String("memprofile", "",
		"write a heap profile (after the final run) to this file")
	traceOut = flag.String("trace", "",
		"write a Chrome trace (chrome://tracing / Perfetto) of the invocation's final stream run to this file and report its tracks on stderr; enables span telemetry on every run (observation cost is zero — results are unchanged)")
)

// benchRun is one run of the -json report: the resolved config the run
// used and its result, JSON-encoded as the golden corpus encodes it (nil
// when the run failed, with Error set instead).
type benchRun struct {
	Experiment string              `json:"experiment"`
	System     string              `json:"system"`
	Opt        string              `json:"opt"`
	Config     repro.StreamConfig  `json:"config"`
	Result     *repro.StreamResult `json:"result,omitempty"`
	Error      string              `json:"error,omitempty"`
}

// reportSchema versions the -json report's layout.
const reportSchema = 1

var (
	curExperiment string
	runs          = []benchRun{}
	// pointFailures counts runs that failed (reported in-table and in JSON
	// rather than aborting the sweep; nonzero exit at the end).
	pointFailures int
	// traceSpans holds the final stream run's span timeline when -trace
	// is set, and traceNs that run's measured interval.
	traceSpans []repro.Span
	traceNs    uint64
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rxbench: ")
	flag.Parse()

	// Declared before the profile defers so it runs after them (LIFO):
	// profiles are flushed even when failed sweep points force a nonzero
	// exit.
	defer func() {
		if pointFailures > 0 {
			os.Exit(1)
		}
	}()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile()

	// With -json the real stdout carries only the JSON document; the
	// experiments' fmt.Print* tables resolve os.Stdout at call time, so
	// rerouting the variable moves them wholesale to stderr.
	jsonDest := os.Stdout
	if *jsonOut {
		os.Stdout = os.Stderr
	}

	runners := map[string]func(){
		"fig1":         fig1,
		"fig2":         fig2,
		"fig3":         fig3,
		"fig4":         fig4,
		"fig6":         fig6,
		"fig7":         fig7,
		"fig8":         func() { figOptBreakdown(repro.SystemNativeUP, "Figure 8: receive processing overheads (UP)", false) },
		"fig9":         func() { figOptBreakdown(repro.SystemNativeSMP, "Figure 9: receive processing overheads (SMP)", false) },
		"fig10":        func() { figOptBreakdown(repro.SystemXen, "Figure 10: receive processing overheads (Xen)", true) },
		"fig11":        fig11,
		"fig12":        fig12,
		"table1":       table1,
		"limit1":       limit1,
		"rss":          rssScaling,
		"churn":        churn,
		"steer":        steerExperiment,
		"smallmsg":     smallMsg,
		"reorder":      reorderExperiment,
		"loss":         lossExperiment,
		"restartstorm": restartStorm,
		"connscale":    connScale,
		"rr":           rrIncast,
	}
	if *experiment == "all" {
		for _, name := range []string{"fig1", "fig2", "fig3", "fig4", "fig6", "fig7",
			"fig8", "fig9", "fig10", "fig11", "fig12", "table1", "limit1", "rss", "churn",
			"steer", "smallmsg", "reorder", "loss", "restartstorm", "connscale", "rr"} {
			curExperiment = name
			runners[name]()
			fmt.Println()
		}
		writeTrace()
		emitJSON(jsonDest)
		return
	}
	run, ok := runners[*experiment]
	if !ok {
		log.Printf("unknown experiment %q", *experiment)
		flag.Usage()
		os.Exit(2)
	}
	curExperiment = *experiment
	run()
	writeTrace()
	emitJSON(jsonDest)
}

// writeTrace validates and writes the captured span timeline when -trace
// is set, then reports each track's activity on stderr. Validation runs
// before the file is written, so a malformed trace fails the invocation
// instead of landing on disk.
func writeTrace() {
	if *traceOut == "" {
		return
	}
	if traceSpans == nil {
		log.Fatal("-trace: no stream run produced spans")
	}
	var buf strings.Builder
	if err := telemetry.WriteChromeTrace(&buf, traceSpans); err != nil {
		log.Fatal(err)
	}
	complete, err := telemetry.ValidateChromeTrace([]byte(buf.String()))
	if err != nil {
		log.Fatalf("-trace: generated trace is invalid: %v", err)
	}
	if err := os.WriteFile(*traceOut, []byte(buf.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "rxbench: wrote %d spans (%d complete events) to %s\n",
		len(traceSpans), complete, *traceOut)

	// Per-track activity, in the order each track's first span starts
	// (the timeline's canonical order).
	type trackSum struct {
		name   string
		spans  int
		busyNs uint64
	}
	var tracks []trackSum
	idx := map[string]int{}
	for _, s := range traceSpans {
		i, ok := idx[s.Track]
		if !ok {
			i = len(tracks)
			idx[s.Track] = i
			tracks = append(tracks, trackSum{name: s.Track})
		}
		tracks[i].spans++
		tracks[i].busyNs += s.DurNs
	}
	fmt.Fprintf(os.Stderr, "%-12s %8s %10s %7s\n", "track", "spans", "busy µs", "busy")
	for _, tr := range tracks {
		fmt.Fprintf(os.Stderr, "%-12s %8d %10.0f %6.1f%%\n", tr.name, tr.spans,
			float64(tr.busyNs)/1e3, float64(tr.busyNs)*100/float64(traceNs))
	}
}

// emitJSON writes the run report when -json is set.
func emitJSON(dest io.Writer) {
	if !*jsonOut {
		return
	}
	enc := json.NewEncoder(dest)
	enc.SetIndent("", "  ")
	report := struct {
		Schema int        `json:"schema"`
		Runs   []benchRun `json:"runs"`
	}{reportSchema, runs}
	if err := enc.Encode(report); err != nil {
		log.Fatal(err)
	}
}

// writeMemProfile dumps the heap profile at exit when -memprofile is set.
func writeMemProfile() {
	if *memProfile == "" {
		return
	}
	f, err := os.Create(*memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	runtime.GC() // materialize the post-run live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Fatal(err)
	}
}

// stream runs one configuration through streamMany.
func stream(cfg repro.StreamConfig) repro.StreamResult {
	results, _ := streamMany([]repro.StreamConfig{cfg})
	return results[0]
}

// streamMany is the one run path: it sets the -duration/-warmup window,
// resolves each config's defaults, wires -trace and runs the points,
// fanned out over -parallel worker goroutines (each RunStream builds its
// own topology, so points share nothing). Results and report entries keep
// the input order whatever the completion order was. A failed point does
// not abort the sweep: its error is logged, recorded in the JSON report
// and surfaced to the caller (errs[i] != nil, results[i] zero); the
// process exits nonzero at the end.
func streamMany(cfgs []repro.StreamConfig) ([]repro.StreamResult, []error) {
	// With -trace every point records spans into its own slot (workers
	// never share one), and the final point's timeline wins.
	var spanBufs [][]repro.Span
	if *traceOut != "" {
		spanBufs = make([][]repro.Span, len(cfgs))
	}
	for i := range cfgs {
		cfgs[i].DurationNs = uint64(duration.Nanoseconds())
		cfgs[i].WarmupNs = uint64(warmup.Nanoseconds())
		if spanBufs != nil {
			cfgs[i].Telemetry.Latency, cfgs[i].Telemetry.Spans = true, true
			cfgs[i].Telemetry.SpanSink = func(s []repro.Span) { spanBufs[i] = s }
		}
		cfgs[i] = cfgs[i].Resolved()
	}
	results := make([]repro.StreamResult, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := *parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = repro.RunStream(cfgs[i])
			}
		}()
	}
	for i := range cfgs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, cfg := range cfgs {
		run := benchRun{Experiment: curExperiment, System: cfg.System.String(),
			Opt: cfg.Opt.String(), Config: cfg}
		if errs[i] != nil {
			pointFailures++
			log.Printf("%s point %d (%s/%s, %d queues): %v",
				curExperiment, i, cfg.System, cfg.Opt, cfg.Queues, errs[i])
			run.Error = errs[i].Error()
		} else {
			run.Result = &results[i]
		}
		runs = append(runs, run)
		if spanBufs != nil && spanBufs[i] != nil {
			traceSpans, traceNs = spanBufs[i], cfg.DurationNs
		}
	}
	return results, errs
}

// fig1 reproduces Figure 1: per-byte vs per-packet share on the 3.8 GHz
// uniprocessor as the prefetch configuration varies.
func fig1() {
	groups := profile.StandardShareGroups()
	var rows []string
	var per [][]float64
	for _, mode := range []memmodel.PrefetchMode{
		memmodel.PrefetchNone, memmodel.PrefetchPartial, memmodel.PrefetchFull,
	} {
		p := repro.NativeUP38()
		p.Mem.Mode = mode
		cfg := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptNone)
		cfg.NICs = 1
		cfg.Params = &p
		res := stream(cfg)
		rows = append(rows, mode.String())
		per = append(per, profile.ShareLine(res.Breakdown, groups))
	}
	fmt.Print(profile.SharesTable(
		"Figure 1: impact of prefetching on overhead shares (UP, 3.8 GHz)",
		rows, per, groups))
}

// fig2 reproduces Figure 2: per-byte vs per-packet share for UP, SMP and
// Xen with full prefetching.
func fig2() {
	groups := profile.StandardShareGroups()
	var rows []string
	var per [][]float64
	for _, sys := range []repro.SystemKind{
		repro.SystemNativeUP, repro.SystemNativeSMP, repro.SystemXen,
	} {
		res := stream(repro.DefaultStreamConfig(sys, repro.OptNone))
		rows = append(rows, sys.String())
		per = append(per, profile.ShareLine(res.Breakdown, groups))
	}
	fmt.Print(profile.SharesTable(
		"Figure 2: per-byte vs per-packet overhead (full prefetching)",
		rows, per, groups))
}

func fig3() {
	res := stream(repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptNone))
	fmt.Print(repro.FormatBreakdown(
		"Figure 3: breakdown of receive processing overheads (UP, cycles/packet)",
		res.Breakdown))
}

func fig4() {
	up := stream(repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptNone))
	smp := stream(repro.DefaultStreamConfig(repro.SystemNativeSMP, repro.OptNone))
	fmt.Print(profile.Comparison(
		"Figure 4: receive processing overheads, UP vs SMP (cycles/packet)",
		"UP", "SMP", up.Breakdown, smp.Breakdown, profile.NativeCategories))
}

func fig6() {
	res := stream(repro.DefaultStreamConfig(repro.SystemXen, repro.OptNone))
	fmt.Print(repro.FormatXenBreakdown(
		"Figure 6: breakdown of receive processing overheads (Xen, cycles/packet)",
		res.Breakdown))
}

func fig7() {
	fmt.Println("Figure 7: overall performance improvement (Mb/s)")
	fmt.Printf("%-11s %10s %10s %10s %8s %8s\n",
		"system", "Original", "RA only", "Optimized", "gain", "util")
	for _, sys := range []repro.SystemKind{
		repro.SystemNativeUP, repro.SystemNativeSMP, repro.SystemXen,
	} {
		orig := stream(repro.DefaultStreamConfig(sys, repro.OptNone))
		ra := stream(repro.DefaultStreamConfig(sys, repro.OptAggregation))
		opt := stream(repro.DefaultStreamConfig(sys, repro.OptFull))
		fmt.Printf("%-11s %10.0f %10.0f %10.0f %+7.0f%% %7.0f%%\n",
			sys, orig.ThroughputMbps, ra.ThroughputMbps, opt.ThroughputMbps,
			(opt.ThroughputMbps/orig.ThroughputMbps-1)*100, opt.CPUUtil*100)
	}
	fmt.Println("(paper: UP 3452->4660, SMP 2988->4660, Xen 1088->1877;")
	fmt.Println(" RA-only gains +26/36/45%; optimized native runs are NIC-limited at ~93% CPU)")
}

func figOptBreakdown(sys repro.SystemKind, title string, xen bool) {
	orig := stream(repro.DefaultStreamConfig(sys, repro.OptNone))
	opt := stream(repro.DefaultStreamConfig(sys, repro.OptFull))
	fmt.Print(repro.FormatComparison(title, orig.Breakdown, opt.Breakdown, xen))
	fmt.Printf("aggregation factor: %.1f\n", opt.AggFactor)
}

func fig11() {
	fmt.Println("Figure 11: CPU overhead vs Aggregation Limit (UP)")
	fmt.Printf("%-6s %16s %10s\n", "limit", "cycles/packet", "agg")
	for _, lim := range []int{1, 2, 3, 5, 8, 10, 15, 20, 25, 30, 35} {
		cfg := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptFull)
		cfg.AggLimit = lim
		res := stream(cfg)
		fmt.Printf("%-6d %16.0f %10.1f\n", lim, res.CyclesPerPacket, res.AggFactor)
	}
	fmt.Println("(paper: steep drop then flat; x + y/k shape; limit 20 chosen)")
}

func fig12() {
	fmt.Println("Figure 12: scalability with concurrent connections (SMP, Mb/s)")
	fmt.Printf("%-8s %10s %10s %8s %8s\n", "conns", "Original", "Optimized", "gain", "agg")
	for _, conns := range []int{5, 25, 50, 100, 200, 400} {
		base := repro.DefaultStreamConfig(repro.SystemNativeSMP, repro.OptNone)
		base.Connections = conns
		opt := repro.DefaultStreamConfig(repro.SystemNativeSMP, repro.OptFull)
		opt.Connections = conns
		b := stream(base)
		o := stream(opt)
		fmt.Printf("%-8d %10.0f %10.0f %+7.0f%% %8.1f\n",
			conns, b.ThroughputMbps, o.ThroughputMbps,
			(o.ThroughputMbps/b.ThroughputMbps-1)*100, o.AggFactor)
	}
	fmt.Println("(paper: optimized stays >=40% ahead at 400 connections)")
}

func table1() {
	fmt.Println("Table 1: impact of receive optimizations on latency (requests/sec)")
	fmt.Printf("%-11s %12s %12s %8s\n", "system", "Original", "Optimized", "delta")
	for _, sys := range []repro.SystemKind{
		repro.SystemNativeUP, repro.SystemNativeSMP, repro.SystemXen,
	} {
		o, err := repro.RunRR(repro.DefaultRRConfig(sys, repro.OptNone))
		if err != nil {
			log.Fatal(err)
		}
		f, err := repro.RunRR(repro.DefaultRRConfig(sys, repro.OptFull))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s %12.0f %12.0f %+7.2f%%\n",
			sys, o.RequestsPerSec, f.RequestsPerSec,
			(f.RequestsPerSec/o.RequestsPerSec-1)*100)
	}
	fmt.Println("(paper: UP 7874/7894, SMP 7970/7985, Xen 6965/6953 — no noticeable impact)")
}

// benchSystem resolves the -sys flag for the beyond-the-paper experiments.
func benchSystem() repro.SystemKind {
	sys, err := repro.ParseSystem(*sysFlag)
	if err != nil {
		log.Fatalf("-sys: %v", err)
	}
	return sys
}

// benchQueues parses the -queues sweep list.
func benchQueues() []int {
	var out []int
	for _, f := range strings.Split(*queueList, ",") {
		q, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || q <= 0 {
			log.Fatalf("bad -queues entry %q", f)
		}
		out = append(out, q)
	}
	return out
}

// rssScaling is the multi-queue experiment beyond the paper: aggregate
// throughput and per-CPU utilization as the queue count scales, for the
// baseline and the optimized receive path. On -sys xen the queues are
// paravirtual I/O channels: per-vCPU netfront/netback rings steered by
// the same Toeplitz hash as the native NIC queues.
func rssScaling() {
	sys := benchSystem()
	fmt.Printf("RSS queue scaling (%s, 200 flows, 8 links; 1 queue = the paper's single-softirq receiver)\n", sys)
	fmt.Printf("%-7s %-10s %10s %10s %8s  %s\n",
		"queues", "path", "Mb/s", "cyc/pkt", "util", "per-CPU util")
	var cfgs []repro.StreamConfig
	for _, opt := range []repro.OptLevel{repro.OptNone, repro.OptFull} {
		for _, q := range benchQueues() {
			cfg := repro.DefaultStreamConfig(sys, opt)
			cfg.NICs = 8
			cfg.Connections = 200
			cfg.Queues = q
			cfgs = append(cfgs, cfg)
		}
	}
	results, errs := streamMany(cfgs)
	for i, res := range results {
		if errs[i] != nil {
			fmt.Printf("%-7d %-10s FAILED: %v\n", cfgs[i].Queues, cfgs[i].Opt, errs[i])
			continue
		}
		per := ""
		for _, u := range res.PerCPUUtil {
			per += fmt.Sprintf(" %3.0f%%", u*100)
		}
		fmt.Printf("%-7d %-10s %10.0f %10.0f %7.0f%% %s\n",
			cfgs[i].Queues, cfgs[i].Opt, res.ThroughputMbps, res.CyclesPerPacket, res.CPUUtil*100, per)
	}
	fmt.Println("(link limit is ~7532 Mb/s over 8 NICs: scaling ends where the wire does)")
}

// churn is the production-shaped workload: hundreds of zipf-skewed flows
// with connection arrival/teardown churn on a 4-queue pipeline.
func churn() {
	sys := benchSystem()
	fmt.Printf("Many-flow churn (%s, 400 zipf-skewed flows, churn every 2ms, 4 queues)\n", sys)
	fmt.Printf("%-10s %10s %8s %8s %10s\n", "path", "Mb/s", "util", "agg", "churned")
	for _, opt := range []repro.OptLevel{repro.OptNone, repro.OptFull} {
		cfg := repro.DefaultStreamConfig(sys, opt)
		cfg.Connections = 400
		cfg.Queues = 4
		cfg.FlowSkew = 1.1
		cfg.ChurnIntervalNs = 2_000_000
		res := stream(cfg)
		fmt.Printf("%-10s %10.0f %7.0f%% %8.1f %10d\n",
			opt, res.ThroughputMbps, res.CPUUtil*100, res.AggFactor, res.FlowsTornDown)
	}
}

// steerExperiment is the dynamic-flow-steering study: the 200-flow zipf
// workload under static RSS, the indirection rebalancer, and rebalancer +
// accelerated RFS (including the app-migration workload), reporting
// throughput, the per-CPU utilization spread, bucket migrations and
// steering-rule occupancy. Queue counts come from -queues (the last entry
// is used); -sys selects native or paravirtual.
func steerExperiment() {
	sys := benchSystem()
	queues := benchQueues()
	q := queues[len(queues)-1]
	fmt.Printf("Dynamic flow steering (%s, 200 zipf flows, 8 links, %d queues)\n", sys, q)
	fmt.Printf("%-22s %8s %8s %8s %8s %8s %8s %8s\n",
		"policy", "Mb/s", "util", "spread", "moves", "rules", "occ", "appmig")
	run := func(name string, steer repro.SteerConfig) {
		cfg := repro.DefaultStreamConfig(sys, repro.OptFull)
		cfg.NICs = 8
		cfg.Connections = 200
		cfg.Queues = q
		cfg.FlowSkew = 1.2
		cfg.Steering = steer
		res := stream(cfg)
		var moves, rules, appmig uint64
		occ := 0
		if res.Steer != nil {
			moves, rules, appmig = res.Steer.Moves, res.Steer.RulesProgrammed, res.Steer.AppMigrations
			occ = res.Steer.RuleOccupancy
		}
		fmt.Printf("%-22s %8.0f %7.0f%% %8.3f %8d %8d %8d %8d\n",
			name, res.ThroughputMbps, res.CPUUtil*100, res.UtilSpread(),
			moves, rules, occ, appmig)
	}
	run("static RSS", repro.SteerConfig{})
	run("rebalancer", repro.SteerConfig{Enabled: true})
	run("rebalancer+aRFS", repro.SteerConfig{Enabled: true, ARFS: true})
	run("rebalancer+aRFS+mig", repro.SteerConfig{Enabled: true, ARFS: true,
		AppMigrateIntervalNs: 2_000_000})
	fmt.Println("(spread = max-min per-CPU utilization; steering must narrow it at equal or better throughput)")
}

// smallMsg is the §5.5 quantitative reproduction: sweep sub-MSS message
// sizes and report how aggregation's effectiveness degrades in byte terms
// — frames per aggregate stay respectable while the bytes each aggregate
// saves collapse with the message size.
func smallMsg() {
	fmt.Println("Section 5.5: aggregation effectiveness vs message size (UP, 2 links)")
	fmt.Printf("%-8s %10s %10s %10s %10s %12s %12s\n",
		"bytes", "Orig Mb/s", "Opt Mb/s", "gain", "frames/agg", "bytes/agg", "saved/agg")
	for _, size := range []int{256, 512, 1024, 1448} {
		run := func(opt repro.OptLevel) repro.StreamResult {
			cfg := repro.DefaultStreamConfig(repro.SystemNativeUP, opt)
			cfg.NICs = 2
			cfg.MessageSize = size
			return stream(cfg)
		}
		base := run(repro.OptNone)
		opt := run(repro.OptFull)
		bytesPerAgg := opt.BytesPerAggregate()
		// Bytes the host-packet costs were amortized over beyond the
		// first frame: the byte-level win of each aggregate.
		savedPerAgg := bytesPerAgg * (1 - 1/opt.AggFactor)
		fmt.Printf("%-8d %10.0f %10.0f %+9.0f%% %10.1f %12.0f %12.0f\n",
			size, base.ThroughputMbps, opt.ThroughputMbps,
			(opt.ThroughputMbps/base.ThroughputMbps-1)*100,
			opt.AggFactor, bytesPerAgg, savedPerAgg)
	}
	fmt.Println("(paper §5.5/§1: the optimizations do not help small-message workloads —")
	fmt.Println(" an aggregate of sub-MSS segments amortizes per-packet cost over few bytes)")
}

// reorderExperiment is the reordering-tolerance study: the 200-flow zipf
// workload under adjacent-swap reorder injected at 0/2/5% of frames,
// swept against the aggregation engines' resequencing window size.
// Without a window every swap tears a pending aggregate down
// (FlushMismatch) and bytes/aggregate collapses toward the MSS; the
// window holds the early frame and stitches it once the gap fills,
// restoring the §3.1 aggregation win and relieving the TCP OOO queue.
// Queue count comes from -queues (last entry); -sys selects the machine.
func reorderExperiment() {
	sys := benchSystem()
	queues := benchQueues()
	q := queues[len(queues)-1]
	fmt.Printf("Reordering tolerance (%s, 200 zipf flows, 8 links, %d queues, adjacent swaps)\n", sys, q)
	fmt.Printf("%-7s %-7s %9s %7s %9s %10s %9s %9s %9s %9s\n",
		"swap", "window", "Mb/s", "util", "frm/agg", "bytes/agg", "cyc/byte", "stitched", "timeout", "mismatch")
	for _, swap := range []int{0, 50, 20} { // 0%, 2%, 5% of frames
		for _, win := range []int{0, 2, 4, 8} {
			cfg := repro.DefaultStreamConfig(sys, repro.OptFull)
			cfg.NICs = 8
			cfg.Connections = 200
			cfg.Queues = q
			cfg.FlowSkew = 1.1
			cfg.Reorder = repro.ReorderConfig{OneIn: swap, Distance: 1}
			cfg.ReorderWindow = win
			res := stream(cfg)
			rate := "0%"
			if swap > 0 {
				rate = fmt.Sprintf("%.0f%%", 100.0/float64(swap))
			}
			fmt.Printf("%-7s %-7d %9.0f %6.0f%% %9.1f %10.0f %9.2f %9d %9d %9d\n",
				rate, win, res.ThroughputMbps, res.CPUUtil*100, res.AggFactor,
				res.BytesPerAggregate(), res.CyclesPerByte(), res.AggStats.Stitched,
				res.AggStats.WindowTimeout, res.AggStats.FlushMismatch)
		}
	}
	fmt.Println("(window 0 is the strict flush-on-OOO engine; under swaps it degenerates toward Limit=1")
	fmt.Println(" and the §5 per-packet savings evaporate — the window restores them)")
}

// lossModelOf names a config's loss model and returns its nominal
// stationary loss rate.
func lossModelOf(cfg repro.StreamConfig) (string, float64) {
	switch {
	case cfg.Loss.OneIn > 0:
		return "uniform", 1 / float64(cfg.Loss.OneIn)
	case cfg.Loss.BurstRate > 0:
		return "burst", cfg.Loss.BurstRate
	default:
		return "", 0
	}
}

// lossExperiment is the loss-and-recovery degradation study: the paper's
// five-link bulk workload under deterministic link loss, crossing loss
// model (uniform / Gilbert-Elliott bursts) × rate (0.1%, 1%, 5%) × SACK
// (off/on) on the native UP and Xen receivers. Reported per point:
// throughput, cycles/byte, bytes/aggregate, fast retransmits, RTOs, and
// the recovery-latency distribution from the telemetry histogram. The
// headline is the SACK column pair — at 1% and 5% loss the scoreboard
// keeps the pipe full through recovery while cumulative-ACK Reno stalls
// on every lost retransmission until the 200 ms RTO floor.
func lossExperiment() {
	fmt.Println("Loss and recovery (5 links, bulk streams; uniform and burst loss, SACK off/on)")
	fmt.Printf("%-9s %-8s %6s %-5s %9s %9s %10s %8s %5s %9s %9s\n",
		"system", "model", "rate", "sack", "Mb/s", "cyc/byte", "bytes/agg",
		"fastRtx", "RTOs", "rec p50µs", "rec p99µs")
	var cfgs []repro.StreamConfig
	for _, sys := range []repro.SystemKind{repro.SystemNativeUP, repro.SystemXen} {
		for _, model := range []string{"uniform", "burst"} {
			for _, rate := range []float64{0.001, 0.01, 0.05} {
				for _, sack := range []bool{false, true} {
					cfg := repro.DefaultStreamConfig(sys, repro.OptFull)
					if model == "uniform" {
						cfg.Loss.OneIn = int(1/rate + 0.5)
					} else {
						cfg.Loss.BurstRate = rate
					}
					cfg.SACK = sack
					cfg.Telemetry.Latency = true
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	results, errs := streamMany(cfgs)
	for i, res := range results {
		cfg := cfgs[i]
		model, rate := lossModelOf(cfg)
		if errs[i] != nil {
			fmt.Printf("%-9s %-8s %5.1f%% %-5v FAILED: %v\n",
				cfg.System, model, rate*100, cfg.SACK, errs[i])
			continue
		}
		rec := res.Latency.Recovery
		us := func(ns uint64) float64 { return float64(ns) / 1e3 }
		fmt.Printf("%-9s %-8s %5.1f%% %-5v %9.0f %9.2f %10.0f %8d %5d %9.1f %9.1f\n",
			cfg.System, model, rate*100, cfg.SACK, res.ThroughputMbps,
			res.CyclesPerByte(), res.BytesPerAggregate(),
			res.Loss.FastRetransmits, res.Loss.RTOs, us(rec.P50Ns), us(rec.P99Ns))
	}
	fmt.Println("(SACK must win at 1% and 5%: with runs shorter than the 200 ms RTO floor, Reno's only")
	fmt.Println(" answer to a lost retransmission is the timer; the scoreboard retransmits it within an RTT)")
}

// restartStorm is the TIME_WAIT-at-scale experiment: half the flow
// population torn down at one instant and redialed on the very same
// four-tuples (SYN-time reuse against the lingering entries), swept
// against a seeded TIME_WAIT backlog from 1k to 100k+ entries — far
// beyond what the port space admits as live flows. The deadline-wheel
// acceptance is a flat cycles/byte column: per-packet receive cost must
// not grow with the lingering population (the seed's flat slice
// rescanned all of it on every insert and sweep).
func restartStorm() {
	sys := benchSystem()
	queues := benchQueues()
	q := queues[len(queues)-1]
	fmt.Printf("Restart storm (%s, 80 flows/4 links, %d queues; half torn down and redialed on their own ports, tw_reuse on)\n", sys, q)
	fmt.Printf("%-9s %9s %9s %10s %9s %8s %8s %9s %10s\n",
		"backlog", "Mb/s", "cyc/byte", "entered", "reaped", "reused", "refused", "peak", "lingering")
	var cfgs []repro.StreamConfig
	for _, prefill := range []int{1_000, 10_000, 50_000, 100_000} {
		cfg := repro.DefaultStreamConfig(sys, repro.OptFull)
		cfg.NICs = 4
		cfg.Connections = 80
		cfg.Queues = q
		cfg.TimeWaitReuse = true
		cfg.RestartStorm = repro.RestartStormConfig{
			AtNs:            uint64(warmup.Nanoseconds()) + uint64(duration.Nanoseconds())/4,
			Fraction:        0.5,
			PrefillTimeWait: prefill,
		}
		cfgs = append(cfgs, cfg)
	}
	results, errs := streamMany(cfgs)
	for i, res := range results {
		if errs[i] != nil {
			fmt.Printf("%-9d FAILED: %v\n", cfgs[i].RestartStorm.PrefillTimeWait, errs[i])
			continue
		}
		tw := res.TimeWait
		fmt.Printf("%-9d %9.0f %9.2f %10d %9d %8d %8d %9d %10d\n",
			cfgs[i].RestartStorm.PrefillTimeWait, res.ThroughputMbps, res.CyclesPerByte(),
			tw.Entered, tw.Reaped, tw.Reused, tw.ReuseRefused, tw.Peak, tw.Len)
	}
	fmt.Println("(flat cycles/byte as the backlog scales 1k -> 100k is the deadline-wheel acceptance:")
	fmt.Println(" insert/reap charge per entry, never a scan of the lingering population)")
}

// connScale is the million-flow demux experiment: a small active flow set
// delivering at full rate while the registered endpoint population sweeps
// 10k → 1M (idle connections that occupy table slots and slab bytes, the
// production shape where most of a server's connections are quiet). Demux
// structural touches price through the capacity-miss model, so at 10k
// registered the table fits in cache and charges nothing, while at 1M the
// table is tens of MB and every lookup pays DRAM latency on its cold line
// touches. The acceptance is the cycles/byte column: flat (≤15%), since a
// probe run is ~1 streamed line however big the table. The budget column
// must scale linearly with the registered population.
func connScale() {
	sys := benchSystem()
	var cfgs []repro.StreamConfig
	for _, reg := range []int{10_000, 100_000, 1_000_000} {
		cfg := repro.DefaultStreamConfig(sys, repro.OptNone)
		cfg.NICs = 4
		cfg.Connections = 64
		cfg.FlowSkew = 1.1
		cfg.RegisteredFlows = reg
		cfgs = append(cfgs, cfg)
	}
	results, errs := streamMany(cfgs)
	fmt.Printf("Connection-count scaling (%s, 64 active zipf flows / 4 links, registered population swept)\n", sys)
	fmt.Printf("%-11s %9s %9s %12s %10s %6s %9s %10s\n",
		"registered", "Mb/s", "cyc/byte", "demux c/pkt", "probe", "load", "table MB", "budget MB")
	for i, res := range results {
		cfg := cfgs[i]
		if errs[i] != nil {
			fmt.Printf("%-11d FAILED: %v\n", cfg.RegisteredFlows, errs[i])
			continue
		}
		fmt.Printf("%-11d %9.0f %9.2f %12.1f %10s %6.2f %9.1f %10.1f\n",
			cfg.RegisteredFlows, res.ThroughputMbps, res.CyclesPerByte(), res.DemuxCyclesPerPacket(),
			fmt.Sprintf("%d/%d", res.Demux.ProbeP50, res.Demux.ProbeMax), res.Demux.LoadP50,
			float64(res.Demux.Bytes)/(1<<20), float64(res.Mem.PeakBytes)/(1<<20))
	}
	fmt.Println("(probe runs stream ~1 line, so cycles/byte stays flat as the table dwarfs the cache)")
}

// rrIncast is the request/response incast experiment: the receiver fires
// synchronized request bursts at a growing fan-in of senders over one
// shared link, and the telemetry collector's RTT histogram measures how
// the burst's tail stretches — the last response queues behind fan-in−1
// others on the wire and in the receive path, so p99 grows with fan-in
// while the median barely moves. Swept over fan-in × message size;
// -sys selects native or the Xen paravirtual path.
func rrIncast() {
	sys := benchSystem()
	fmt.Printf("Incast request/response (%s, 1 link, synchronized bursts, RTT per message)\n", sys)
	fmt.Printf("%-7s %-7s %8s %9s %9s %9s %9s %8s\n",
		"fan-in", "msg", "rounds", "p50 µs", "p99 µs", "p999 µs", "max µs", "Mb/s")
	var cfgs []repro.StreamConfig
	for _, fanin := range []int{4, 16, 64} {
		for _, size := range []int{256, 1448, 4344} {
			cfg := repro.DefaultStreamConfig(sys, repro.OptFull)
			cfg.NICs = 1
			cfg.Connections = fanin
			cfg.RPC = repro.RPCConfig{Enabled: true, MessageBytes: size}
			cfgs = append(cfgs, cfg)
		}
	}
	results, errs := streamMany(cfgs)
	for i, res := range results {
		cfg := cfgs[i]
		if errs[i] != nil {
			fmt.Printf("%-7d %-7d FAILED: %v\n", cfg.Connections, cfg.RPC.MessageBytes, errs[i])
			continue
		}
		rtt := res.Latency.RTT
		us := func(ns uint64) float64 { return float64(ns) / 1e3 }
		fmt.Printf("%-7d %-7d %8d %9.1f %9.1f %9.1f %9.1f %8.0f\n",
			cfg.Connections, cfg.RPC.MessageBytes, res.RPCRounds,
			us(rtt.P50Ns), us(rtt.P99Ns), us(rtt.P999Ns), us(rtt.MaxNs),
			res.ThroughputMbps)
	}
	fmt.Println("(p99 tracks the burst width: the last message of a fan-in-N burst waited for N−1 others)")
}

func limit1() {
	base := stream(repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptNone))
	cfg := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptFull)
	cfg.AggLimit = 1
	lim1 := stream(cfg)
	fmt.Println("Section 5.5 check: Aggregation Limit = 1 must not degrade performance")
	fmt.Printf("baseline:  %7.0f Mb/s  %7.0f cycles/packet\n",
		base.ThroughputMbps, base.CyclesPerPacket)
	fmt.Printf("limit 1:   %7.0f Mb/s  %7.0f cycles/packet (%+.1f%%)\n",
		lim1.ThroughputMbps, lim1.CyclesPerPacket,
		(lim1.CyclesPerPacket/base.CyclesPerPacket-1)*100)
}
