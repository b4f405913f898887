// Command rxbench regenerates the tables and figures of "Optimizing TCP
// Receive Performance" (Menon & Zwaenepoel, USENIX ATC 2008) from the
// simulation. Run with no arguments for everything, or select one
// experiment:
//
//	rxbench -experiment fig7
//	rxbench -experiment table1 -duration 500ms
//
// Each experiment is defined once, in the experiments list below, and a
// paper figure's "(paper: ...)" footer is its rows of internal/paper. Every
// stream experiment runs its points on the -parallel worker pool and
// prints them in a fixed order, so its table does not depend on -parallel.
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
// -experiment run prints the full report of one Optimized run
// (profile.Report): its cycle breakdown as a table and a bar chart, the
// flow table's shard and demux statistics with the memory budget,
// TIME_WAIT when a flow lingered, the aggregation engines' flush reasons,
// the per-stage latency and, with -loss or -sack, the loss-recovery
// breakdown. -sys and the first -queues entry pick the receiver; -conns,
// -loss, -sack, -churn and -registered shape its workload:
//
//	rxbench -experiment run -sys xen -queues 4 -conns 100
//	rxbench -experiment run -loss 100 -sack
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
	"cmp"
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
	"repro/internal/paper"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

var (
	experiment = flag.String("experiment", "all", "experiment to run: all"+experimentNames())
	duration   = flag.Duration("duration", 150*time.Millisecond, "measured virtual duration per run")
	warmup     = flag.Duration("warmup", 40*time.Millisecond, "virtual warm-up before measurement")
	sysFlag    = flag.String("sys", "up",
		"system for the rss, churn, reorder, connscale, rr and run experiments: up, smp, xen (xen scales paravirtual I/O channels)")
	queueList = flag.String("queues", "1,2,4,8",
		"queue counts swept by the rss experiment (comma-separated); reorder uses the last entry and run the first; churn is fixed at 4 queues and ignores it")
	jsonOut = flag.Bool("json", false,
		"emit machine-readable JSON run records on stdout (tables move to stderr)")
	parallel = flag.Int("parallel", 1,
		"worker goroutines for the points of every experiment but table1; output order is deterministic")
	cpuProfile = flag.String("cpuprofile", "",
		"write a CPU profile of the whole invocation to this file")
	memProfile = flag.String("memprofile", "",
		"write a heap profile (after the final run) to this file")
	traceOut = flag.String("trace", "",
		"write a Chrome trace (chrome://tracing / Perfetto) of the invocation's final stream run to this file and report its tracks on stderr; enables span telemetry on every run (observation cost is zero — results are unchanged)")
	// The run experiment's workload.
	conns      = flag.Int("conns", 0, "concurrent connections of the run experiment (0 = one per link)")
	lossOneIn  = flag.Int("loss", 0, "run experiment: drop every Nth forward frame on each link, uniformly at random (0 = off)")
	sack       = flag.Bool("sack", false, "run experiment: negotiate SACK on every connection")
	churnEvery = flag.Duration("churn", 0,
		"run experiment: tear down and replace the oldest flow at this interval (0 = no churn); teardowns linger in TIME_WAIT")
	registered = flag.Int("registered", 0,
		"run experiment: registered endpoints, counting an idle population beyond -conns (0 = active connections only)")
)

// experimentDef is one experiment: its name and the function that runs it.
type experimentDef struct {
	name string
	run  func(w io.Writer)
}

// experiments lists every experiment in the order -experiment all runs them.
var experiments = []experimentDef{
	{"fig1", fig1},
	{"fig2", fig2},
	{"fig3", figBreakdown(repro.SystemNativeUP, repro.FormatBreakdown, "Figure 3: breakdown of receive processing overheads (UP, cycles/packet)")},
	{"fig4", fig4},
	{"fig6", figBreakdown(repro.SystemXen, repro.FormatXenBreakdown, "Figure 6: breakdown of receive processing overheads (Xen, cycles/packet)")},
	{"fig7", fig7},
	{"fig8", figOptBreakdown(repro.SystemNativeUP, "Figure 8: receive processing overheads (UP)")},
	{"fig9", figOptBreakdown(repro.SystemNativeSMP, "Figure 9: receive processing overheads (SMP)")},
	{"fig10", figOptBreakdown(repro.SystemXen, "Figure 10: receive processing overheads (Xen)")},
	{"fig11", fig11},
	{"fig12", fig12},
	{"table1", table1},
	{"limit1", limit1},
	{"rss", rssScaling},
	{"churn", churn},
	{"smallmsg", smallMsg},
	{"reorder", reorderExperiment},
	{"loss", lossExperiment},
	{"connscale", connScale},
	{"rr", rrIncast},
	{"run", runReport},
}

// print runs e, then prints the paper's values beneath a paper figure.
func (e experimentDef) print(w io.Writer) {
	curExperiment = e.name
	e.run(w)
	fmt.Fprint(w, paper.Footer(e.name))
}

// experimentNames is ", name" for each experiment, for the help text.
func experimentNames() (names string) {
	for _, e := range experiments {
		names += ", " + e.name
	}
	return names
}

// paperSystems are the three machines of the paper's evaluation.
var paperSystems = []repro.SystemKind{repro.SystemNativeUP, repro.SystemNativeSMP, repro.SystemXen}

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
	// benchSys and benchQueues are -sys and -queues, parsed by parseFlags
	// before the first run.
	benchSys      repro.SystemKind
	benchQueues   []int
	curExperiment string
	runs          = []benchRun{}
	// pointFailures counts runs that failed (reported in-table and in JSON
	// rather than aborting the experiment; nonzero exit at the end).
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
	selected, err := parseFlags()
	if err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}

	// Declared before the profile defers so it runs after them (LIFO):
	// profiles are flushed even when failed points force a nonzero exit.
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

	// With -json stdout carries only the JSON document.
	var out io.Writer = os.Stdout
	if *jsonOut {
		out = os.Stderr
	}
	for _, e := range selected {
		e.print(out)
		if *experiment == "all" {
			fmt.Fprintln(out)
		}
	}
	writeTrace()
	emitJSON(os.Stdout)
}

// parseFlags resolves -sys and -queues, rejects a negative -duration,
// -warmup or -churn, and selects the -experiment runs, so that a bad value
// fails the invocation before its first run.
func parseFlags() ([]experimentDef, error) {
	var err error
	if benchSys, err = repro.ParseSystem(*sysFlag); err != nil {
		return nil, fmt.Errorf("-sys: %v", err)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{{"-duration", *duration}, {"-warmup", *warmup}, {"-churn", *churnEvery}} {
		if d.v < 0 {
			return nil, fmt.Errorf("%s %v is negative", d.name, d.v)
		}
	}
	benchQueues = nil
	for _, f := range strings.Split(*queueList, ",") {
		q, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || q <= 0 {
			return nil, fmt.Errorf("bad -queues entry %q", f)
		}
		benchQueues = append(benchQueues, q)
	}
	for i, e := range experiments {
		if e.name == *experiment {
			return experiments[i : i+1], nil
		}
	}
	if *experiment != "all" {
		return nil, fmt.Errorf("unknown experiment %q", *experiment)
	}
	return experiments, nil
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

// streamMany is the one run path: it sets the -duration/-warmup window,
// resolves each config's defaults, wires -trace and runs the points,
// fanned out over -parallel worker goroutines (each RunStream builds its
// own topology, so points share nothing). Results and report entries keep the input order
// whatever the completion order was. A failed point does not abort the
// experiment: its error is logged, recorded in the JSON report and
// surfaced to the caller (errs[i] != nil, results[i] zero); the process
// exits nonzero at the end.
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
			cfgs[i].Telemetry.Latency = true
			cfgs[i].Telemetry.SpanSink = func(s []repro.Span) { spanBufs[i] = s }
		}
		cfgs[i] = cfgs[i].Resolved()
	}
	results, errs := make([]repro.StreamResult, len(cfgs)), make([]error, len(cfgs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(max(*parallel, 1), len(cfgs)); w++ {
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

// table is one experiment's rows: each row's label and points, every row
// with the same number of points.
type table struct {
	labels []string
	cfgs   []repro.StreamConfig
}

// add appends a row of points under its label and returns t.
func (t *table) add(label string, cfgs ...repro.StreamConfig) *table {
	t.labels = append(t.labels, label)
	t.cfgs = append(t.cfgs, cfgs...)
	return t
}

// print runs the points through streamMany and prints each row: its
// label, then the figures row formats from its results, or FAILED and the
// first error among its points. A figure that is one whole table is one
// row labelled with its title, and its formatter gets an empty title,
// which leaves the table's first line to the label.
func (t *table) print(w io.Writer, row func(res []repro.StreamResult) string) {
	results, errs := streamMany(t.cfgs)
	per := len(results) / len(t.labels)
	for i, label := range t.labels {
		if err := cmp.Or(errs[i*per : (i+1)*per]...); err != nil {
			fmt.Fprintf(w, "%s FAILED: %v\n", label, err)
		} else {
			fmt.Fprint(w, label, row(results[i*per:(i+1)*per]))
		}
	}
}

// sharesFigure is Figures 1 and 2: each row's per-byte vs per-packet share.
func sharesFigure(w io.Writer, title string, rows []string, cfgs []repro.StreamConfig) {
	new(table).add(title, cfgs...).print(w, func(res []repro.StreamResult) string {
		groups := profile.StandardShareGroups()
		var per [][]float64
		for _, r := range res {
			per = append(per, profile.ShareLine(r.Breakdown, groups))
		}
		return profile.SharesTable("", rows, per, groups)
	})
}

// fig1 reproduces Figure 1: per-byte vs per-packet share on the 3.8 GHz
// uniprocessor as the prefetch configuration varies.
func fig1(w io.Writer) {
	var rows []string
	var cfgs []repro.StreamConfig
	for _, mode := range []memmodel.PrefetchMode{
		memmodel.PrefetchNone, memmodel.PrefetchPartial, memmodel.PrefetchFull,
	} {
		p := repro.NativeUP38()
		p.Mem.Mode = mode
		cfg := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptNone)
		cfg.NICs = 1
		cfg.Params = &p
		rows = append(rows, mode.String())
		cfgs = append(cfgs, cfg)
	}
	sharesFigure(w, "Figure 1: impact of prefetching on overhead shares (UP, 3.8 GHz)", rows, cfgs)
}

// fig2 reproduces Figure 2: per-byte vs per-packet share for UP, SMP and
// Xen with full prefetching.
func fig2(w io.Writer) {
	var rows []string
	var cfgs []repro.StreamConfig
	for _, sys := range paperSystems {
		rows = append(rows, sys.String())
		cfgs = append(cfgs, repro.DefaultStreamConfig(sys, repro.OptNone))
	}
	sharesFigure(w, "Figure 2: per-byte vs per-packet overhead (full prefetching)", rows, cfgs)
}

// figBreakdown is Figures 3 and 6: one system's Original breakdown.
func figBreakdown(sys repro.SystemKind, format func(string, repro.Breakdown) string, title string) func(io.Writer) {
	return func(w io.Writer) {
		new(table).add(title, repro.DefaultStreamConfig(sys, repro.OptNone)).print(w,
			func(r []repro.StreamResult) string { return format("", r[0].Breakdown) })
	}
}

// fig4 is Figure 4: UP and SMP per category, and SMP's cost over UP's as
// the paper states it.
func fig4(w io.Writer) {
	new(table).add("Figure 4: receive processing overheads, UP vs SMP (cycles/packet)",
		repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptNone),
		repro.DefaultStreamConfig(repro.SystemNativeSMP, repro.OptNone),
	).print(w, func(r []repro.StreamResult) string {
		up, smp := r[0].Breakdown, r[1].Breakdown
		s := fmt.Sprintf("\n%-10s %14s %14s %8s\n", "category", "UP", "SMP", "SMP/UP")
		for _, c := range profile.NativeCategories {
			if u, m := up.Get(c), smp.Get(c); u != 0 || m != 0 {
				s += fmt.Sprintf("%-10s %14.0f %14.0f %+7.0f%%\n", c, u, m, (m/u-1)*100)
			}
		}
		return s + fmt.Sprintf("%-10s %14.0f %14.0f %+7.0f%%\n", "total", up.Total(), smp.Total(), (smp.Total()/up.Total()-1)*100)
	})
}

func fig7(w io.Writer) {
	var t table
	for _, sys := range paperSystems {
		t.add(fmt.Sprintf("%-11s", sys), repro.DefaultStreamConfig(sys, repro.OptNone),
			repro.DefaultStreamConfig(sys, repro.OptAggregation), repro.DefaultStreamConfig(sys, repro.OptFull))
	}
	fmt.Fprintln(w, "Figure 7: overall performance improvement (Mb/s)")
	fmt.Fprintf(w, "%-11s %10s %10s %10s %8s %8s\n",
		"system", "Original", "RA only", "Optimized", "gain", "util")
	t.print(w, func(r []repro.StreamResult) string {
		orig, ra, opt := r[0], r[1], r[2]
		return fmt.Sprintf(" %10.0f %10.0f %10.0f %+7.0f%% %7.0f%%\n",
			orig.ThroughputMbps, ra.ThroughputMbps, opt.ThroughputMbps,
			(opt.ThroughputMbps/orig.ThroughputMbps-1)*100, opt.CPUUtil*100)
	})
}

// figOptBreakdown is Figures 8-10: Original vs Optimized per category.
func figOptBreakdown(sys repro.SystemKind, title string) func(io.Writer) {
	return func(w io.Writer) {
		orig, opt := repro.DefaultStreamConfig(sys, repro.OptNone), repro.DefaultStreamConfig(sys, repro.OptFull)
		new(table).add(title, orig, opt).print(w, func(r []repro.StreamResult) string {
			return repro.FormatComparison("", r[0].Breakdown, r[1].Breakdown, sys == repro.SystemXen) +
				fmt.Sprintf("aggregation factor: %.1f\n", r[1].AggFactor)
		})
	}
}

func fig11(w io.Writer) {
	var t table
	for _, lim := range []int{1, 2, 3, 5, 8, 10, 15, 20, 25, 30, 35} {
		cfg := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptFull)
		cfg.AggLimit = lim
		t.add(fmt.Sprintf("%-6d", lim), cfg)
	}
	fmt.Fprintln(w, "Figure 11: CPU overhead vs Aggregation Limit (UP)")
	fmt.Fprintf(w, "%-6s %16s %10s\n", "limit", "cycles/packet", "agg")
	t.print(w, func(r []repro.StreamResult) string {
		return fmt.Sprintf(" %16.0f %10.1f\n", r[0].CyclesPerPacket, r[0].AggFactor)
	})
}

func fig12(w io.Writer) {
	var t table
	for _, conns := range []int{5, 25, 50, 100, 200, 400} {
		base := repro.DefaultStreamConfig(repro.SystemNativeSMP, repro.OptNone)
		opt := repro.DefaultStreamConfig(repro.SystemNativeSMP, repro.OptFull)
		base.Connections, opt.Connections = conns, conns
		t.add(fmt.Sprintf("%-8d", conns), base, opt)
	}
	fmt.Fprintln(w, "Figure 12: scalability with concurrent connections (SMP, Mb/s)")
	fmt.Fprintf(w, "%-8s %10s %10s %8s %8s\n", "conns", "Original", "Optimized", "gain", "agg")
	t.print(w, func(r []repro.StreamResult) string {
		b, o := r[0], r[1]
		return fmt.Sprintf(" %10.0f %10.0f %+7.0f%% %8.1f\n",
			b.ThroughputMbps, o.ThroughputMbps, (o.ThroughputMbps/b.ThroughputMbps-1)*100, o.AggFactor)
	})
}

func table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: impact of receive optimizations on latency (requests/sec)")
	fmt.Fprintf(w, "%-11s %12s %12s %8s\n", "system", "Original", "Optimized", "delta")
	for _, sys := range paperSystems {
		o, errO := repro.RunRR(repro.DefaultRRConfig(sys, repro.OptNone))
		f, errF := repro.RunRR(repro.DefaultRRConfig(sys, repro.OptFull))
		if err := cmp.Or(errO, errF); err != nil {
			for _, err := range []error{errO, errF} {
				if err != nil {
					pointFailures++
				}
			}
			fmt.Fprintf(w, "%-11s FAILED: %v\n", sys, err)
			continue
		}
		fmt.Fprintf(w, "%-11s %12.0f %12.0f %+7.2f%%\n",
			sys, o.RequestsPerSec, f.RequestsPerSec, (f.RequestsPerSec/o.RequestsPerSec-1)*100)
	}
}

// rssScaling is the multi-queue experiment beyond the paper: aggregate
// throughput and per-CPU utilization as the queue count scales, for the
// baseline and the optimized receive path. On -sys xen each queue also
// carries one paravirtual I/O channel to its own guest vCPU.
func rssScaling(w io.Writer) {
	fmt.Fprintf(w, "RSS queue scaling (%s, 200 flows, 8 links; 1 queue = the paper's single-softirq receiver)\n", benchSys)
	fmt.Fprintf(w, "%-7s %-10s %10s %10s %8s  %s\n",
		"queues", "path", "Mb/s", "cyc/pkt", "util", "per-CPU util")
	var t table
	for _, opt := range []repro.OptLevel{repro.OptNone, repro.OptFull} {
		for _, q := range benchQueues {
			cfg := repro.DefaultStreamConfig(benchSys, opt)
			cfg.NICs = 8
			cfg.Connections = 200
			cfg.Queues = q
			t.add(fmt.Sprintf("%-7d %-10s", q, opt), cfg)
		}
	}
	t.print(w, func(r []repro.StreamResult) string {
		per := ""
		for _, u := range r[0].PerCPUUtil {
			per += fmt.Sprintf(" %3.0f%%", u*100)
		}
		return fmt.Sprintf(" %10.0f %10.0f %7.0f%% %s\n",
			r[0].ThroughputMbps, r[0].CyclesPerPacket, r[0].CPUUtil*100, per)
	})
	fmt.Fprintln(w, "(link limit is ~7532 Mb/s over 8 NICs: scaling ends where the wire does)")
}

// churn is the production-shaped workload: hundreds of zipf-skewed flows
// with connection arrival/teardown churn on a 4-queue pipeline.
func churn(w io.Writer) {
	fmt.Fprintf(w, "Many-flow churn (%s, 400 zipf-skewed flows, churn every 2ms, 4 queues)\n", benchSys)
	fmt.Fprintf(w, "%-10s %10s %8s %8s %10s\n", "path", "Mb/s", "util", "agg", "churned")
	var t table
	for _, opt := range []repro.OptLevel{repro.OptNone, repro.OptFull} {
		cfg := repro.DefaultStreamConfig(benchSys, opt)
		cfg.Connections = 400
		cfg.Queues = 4
		cfg.FlowSkew = 1.1
		cfg.ChurnIntervalNs = 2_000_000
		t.add(fmt.Sprintf("%-10s", opt), cfg)
	}
	t.print(w, func(r []repro.StreamResult) string {
		return fmt.Sprintf(" %10.0f %7.0f%% %8.1f %10d\n",
			r[0].ThroughputMbps, r[0].CPUUtil*100, r[0].AggFactor, r[0].FlowsTornDown)
	})
}

// smallMsg is the §5.5 quantitative reproduction: sweep sub-MSS message
// sizes and report how aggregation's effectiveness degrades in byte terms
// — frames per aggregate stay respectable while the bytes each aggregate
// saves collapse with the message size.
func smallMsg(w io.Writer) {
	var t table
	for _, size := range []int{256, 512, 1024, 1448} {
		base := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptNone)
		opt := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptFull)
		base.NICs, opt.NICs = 2, 2
		base.MessageSize, opt.MessageSize = size, size
		t.add(fmt.Sprintf("%-8d", size), base, opt)
	}
	fmt.Fprintln(w, "Section 5.5: aggregation effectiveness vs message size (UP, 2 links)")
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s %12s %12s\n",
		"bytes", "Orig Mb/s", "Opt Mb/s", "gain", "frames/agg", "bytes/agg", "saved/agg")
	t.print(w, func(r []repro.StreamResult) string {
		base, opt := r[0], r[1]
		bytesPerAgg := opt.BytesPerAggregate()
		// Bytes the host-packet costs were amortized over beyond the
		// first frame: the byte-level win of each aggregate.
		savedPerAgg := bytesPerAgg * (1 - 1/opt.AggFactor)
		return fmt.Sprintf(" %10.0f %10.0f %+9.0f%% %10.1f %12.0f %12.0f\n",
			base.ThroughputMbps, opt.ThroughputMbps, (opt.ThroughputMbps/base.ThroughputMbps-1)*100,
			opt.AggFactor, bytesPerAgg, savedPerAgg)
	})
	fmt.Fprintln(w, "(paper §5.5/§1: the optimizations do not help small-message workloads —")
	fmt.Fprintln(w, " an aggregate of sub-MSS segments amortizes per-packet cost over few bytes)")
}

// reorderExperiment is the reordering-tolerance study: the 200-flow zipf
// workload under adjacent-swap reorder injected at 0/2/5% of frames,
// swept against the aggregation engines' resequencing window size.
// Without a window every swap tears a pending aggregate down
// (FlushMismatch) and bytes/aggregate collapses toward the MSS; the
// window holds the early frame and stitches it once the gap fills,
// restoring the §3.1 aggregation win and relieving the TCP OOO queue.
func reorderExperiment(w io.Writer) {
	q := benchQueues[len(benchQueues)-1]
	fmt.Fprintf(w, "Reordering tolerance (%s, 200 zipf flows, 8 links, %d queues, adjacent swaps)\n", benchSys, q)
	fmt.Fprintf(w, "%-7s %-7s %9s %7s %9s %10s %9s %9s %9s %9s\n",
		"swap", "window", "Mb/s", "util", "frm/agg", "bytes/agg", "cyc/byte", "stitched", "timeout", "mismatch")
	var t table
	for _, swap := range []int{0, 50, 20} { // 0%, 2%, 5% of frames
		rate := "0%"
		if swap > 0 {
			rate = fmt.Sprintf("%.0f%%", 100.0/float64(swap))
		}
		for _, win := range []int{0, 2, 4, 8} {
			cfg := repro.DefaultStreamConfig(benchSys, repro.OptFull)
			cfg.NICs = 8
			cfg.Connections = 200
			cfg.Queues = q
			cfg.FlowSkew = 1.1
			cfg.Reorder = repro.ReorderConfig{OneIn: swap, Distance: 1}
			cfg.ReorderWindow = win
			t.add(fmt.Sprintf("%-7s %-7d", rate, win), cfg)
		}
	}
	t.print(w, func(r []repro.StreamResult) string {
		res := r[0]
		return fmt.Sprintf(" %9.0f %6.0f%% %9.1f %10.0f %9.2f %9d %9d %9d\n",
			res.ThroughputMbps, res.CPUUtil*100, res.AggFactor,
			res.BytesPerAggregate(), res.CyclesPerByte(), res.AggStats.Stitched,
			res.AggStats.WindowTimeout, res.AggStats.FlushMismatch)
	})
	fmt.Fprintln(w, "(window 0 is the strict flush-on-OOO engine; under swaps it degenerates toward Limit=1")
	fmt.Fprintln(w, " and the §5 per-packet savings evaporate — the window restores them)")
}

// lossExperiment is the loss-and-recovery degradation study: the paper's
// five-link bulk workload under deterministic link loss, crossing loss
// model (uniform / Gilbert-Elliott bursts) × rate (0.1%, 1%, 5%) × SACK
// (off/on) on the native UP and Xen receivers. The headline is the SACK
// column pair — at 1% and 5% loss the scoreboard keeps the pipe full
// through recovery while cumulative-ACK Reno stalls on every lost
// retransmission until the 200 ms RTO floor.
func lossExperiment(w io.Writer) {
	fmt.Fprintln(w, "Loss and recovery (5 links, bulk streams; uniform and burst loss, SACK off/on)")
	fmt.Fprintf(w, "%-9s %-8s %6s %-5s %9s %9s %10s %8s %5s %9s %9s\n",
		"system", "model", "rate", "sack", "Mb/s", "cyc/byte", "bytes/agg",
		"fastRtx", "RTOs", "rec p50µs", "rec p99µs")
	var t table
	for _, sys := range []repro.SystemKind{repro.SystemNativeUP, repro.SystemXen} {
		for _, model := range []string{"uniform", "burst"} {
			for _, rate := range []float64{0.001, 0.01, 0.05} {
				for _, sack := range []bool{false, true} {
					cfg := repro.DefaultStreamConfig(sys, repro.OptFull)
					cfg.Loss = repro.LossConfig{BurstRate: rate}
					if model == "uniform" {
						cfg.Loss = repro.LossConfig{OneIn: int(1/rate + 0.5)}
					}
					cfg.SACK = sack
					cfg.Telemetry.Latency = true
					t.add(fmt.Sprintf("%-9s %-8s %5.1f%% %-5v", sys, model, rate*100, sack), cfg)
				}
			}
		}
	}
	t.print(w, func(r []repro.StreamResult) string {
		res, rec := r[0], r[0].Latency.Recovery
		return fmt.Sprintf(" %9.0f %9.2f %10.0f %8d %5d %9.1f %9.1f\n",
			res.ThroughputMbps, res.CyclesPerByte(), res.BytesPerAggregate(),
			res.Loss.FastRetransmits, res.Loss.RTOs, float64(rec.P50Ns)/1e3, float64(rec.P99Ns)/1e3)
	})
	fmt.Fprintln(w, "(SACK must win at 1% and 5%: with runs shorter than the 200 ms RTO floor, Reno's only")
	fmt.Fprintln(w, " answer to a lost retransmission is the timer; the scoreboard retransmits it within an RTT)")
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
func connScale(w io.Writer) {
	var t table
	for _, reg := range []int{10_000, 100_000, 1_000_000} {
		cfg := repro.DefaultStreamConfig(benchSys, repro.OptNone)
		cfg.NICs = 4
		cfg.Connections = 64
		cfg.FlowSkew = 1.1
		cfg.RegisteredFlows = reg
		t.add(fmt.Sprintf("%-11d", reg), cfg)
	}
	fmt.Fprintf(w, "Connection-count scaling (%s, 64 active zipf flows / 4 links, registered population swept)\n", benchSys)
	fmt.Fprintf(w, "%-11s %9s %9s %12s %10s %6s %9s %10s\n",
		"registered", "Mb/s", "cyc/byte", "demux c/pkt", "probe", "load", "table MB", "budget MB")
	t.print(w, func(r []repro.StreamResult) string {
		res := r[0]
		return fmt.Sprintf(" %9.0f %9.2f %12.1f %10s %6.2f %9.1f %10.1f\n",
			res.ThroughputMbps, res.CyclesPerByte(), res.DemuxCyclesPerPacket(),
			fmt.Sprintf("%d/%d", res.Demux.ProbeP50, res.Demux.ProbeMax), res.Demux.LoadP50,
			float64(res.Demux.Bytes)/(1<<20), float64(res.Mem.PeakBytes)/(1<<20))
	})
	fmt.Fprintln(w, "(probe runs stream ~1 line, so cycles/byte stays flat as the table dwarfs the cache)")
}

// rrIncast is the request/response incast experiment: the receiver fires
// synchronized request bursts at a growing fan-in of senders over one
// shared link, and the telemetry collector's RTT histogram measures how
// the burst's tail stretches — the last response queues behind fan-in−1
// others on the wire and in the receive path, so p99 grows with fan-in
// while the median barely moves. Swept over fan-in × message size.
func rrIncast(w io.Writer) {
	fmt.Fprintf(w, "Incast request/response (%s, 1 link, synchronized bursts, RTT per message)\n", benchSys)
	fmt.Fprintf(w, "%-7s %-7s %8s %9s %9s %9s %9s %8s\n",
		"fan-in", "msg", "rounds", "p50 µs", "p99 µs", "p999 µs", "max µs", "Mb/s")
	var t table
	for _, fanin := range []int{4, 16, 64} {
		for _, size := range []int{256, 1448, 4344} {
			cfg := repro.DefaultStreamConfig(benchSys, repro.OptFull)
			cfg.NICs = 1
			cfg.Connections = fanin
			cfg.RPC = repro.RPCConfig{Enabled: true, MessageBytes: size}
			t.add(fmt.Sprintf("%-7d %-7d", fanin, size), cfg)
		}
	}
	t.print(w, func(r []repro.StreamResult) string {
		rtt := r[0].Latency.RTT
		us := func(ns uint64) float64 { return float64(ns) / 1e3 }
		return fmt.Sprintf(" %8d %9.1f %9.1f %9.1f %9.1f %8.0f\n", r[0].RPCRounds,
			us(rtt.P50Ns), us(rtt.P99Ns), us(rtt.P999Ns), us(rtt.MaxNs), r[0].ThroughputMbps)
	})
	fmt.Fprintln(w, "(p99 tracks the burst width: the last message of a fan-in-N burst waited for N−1 others)")
}

func limit1(w io.Writer) {
	lim := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptFull)
	lim.AggLimit = 1
	new(table).add("Section 5.5 check: Aggregation Limit = 1 must not degrade performance",
		repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptNone), lim,
	).print(w, func(r []repro.StreamResult) string {
		base, lim1 := r[0], r[1]
		return fmt.Sprintf("\nbaseline:  %7.0f Mb/s  %7.0f cycles/packet\n", base.ThroughputMbps, base.CyclesPerPacket) +
			fmt.Sprintf("limit 1:   %7.0f Mb/s  %7.0f cycles/packet (%+.1f%%)\n",
				lim1.ThroughputMbps, lim1.CyclesPerPacket, (lim1.CyclesPerPacket/base.CyclesPerPacket-1)*100)
	})
}

// runReport is one Optimized point on -sys with the first -queues entry,
// shaped by -conns, -loss, -sack, -churn and -registered, with latency
// telemetry on, printed as the full run report.
func runReport(w io.Writer) {
	cfg := repro.DefaultStreamConfig(benchSys, repro.OptFull)
	cfg.Queues = benchQueues[0]
	cfg.Connections = *conns
	cfg.Loss = repro.LossConfig{OneIn: *lossOneIn}
	cfg.SACK = *sack
	cfg.ChurnIntervalNs = uint64(churnEvery.Nanoseconds())
	cfg.RegisteredFlows = *registered
	cfg.Telemetry.Latency = true
	res, errs := streamMany([]repro.StreamConfig{cfg})
	if errs[0] != nil {
		fmt.Fprintf(w, "%s / %s FAILED: %v\n", cfg.System, cfg.Opt, errs[0])
		return
	}
	fmt.Fprint(w, profile.Report(cfg, res[0]))
}
