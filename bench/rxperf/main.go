// Command rxperf is the repository's benchmark. It measures two things over
// five named workloads: the simulator program's host cost (frames per
// second, allocation, set-up time, peak RSS) and the simulated receiver's
// results (Mb/s, cycles per byte, CPU utilization, latency), and checks
// every run's output for correctness.
//
// Run from the bench directory:
//
//	go run ./rxperf                        # end-to-end metrics, every workload
//	go run ./rxperf -trace 1               # per-layer metrics, spans and profiles
//	go run ./rxperf -workload paper-xen -seed 1 -seconds 10 -trace 0
//	go run ./rxperf -compare rxperf/baseline.json
//	go run ./rxperf -record rxperf/baseline.json
//
// With -workload the named workload runs in this process and the last line
// of standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Without it, each workload runs in a child process of its own,
// so peak RSS is per workload. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "input seed of the layer pass's generated inputs")
	seconds := flag.Float64("seconds", 0, "timed-rep budget per workload in seconds (0: exactly 3 timed reps)")
	trace := flag.Int("trace", 0, "1: run the traced pass and report per-layer metrics instead of end-to-end ones")
	traceDir := flag.String("trace-dir", ".bench_build/rxperf-trace", "where the traced pass writes spans.json, trace.json and cpu.pprof")
	compare := flag.String("compare", "", "compare a fresh run against this baseline file")
	record := flag.String("record", "", "run two sets of runs and write them to this baseline file")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	o := options{
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		traceDir: *traceDir,
	}

	var ok bool
	var err error
	switch {
	case *record != "":
		ok, err = recordBaseline(*record, o)
	case *compare != "":
		ok, err = compareBaseline(*compare, o)
	case *workload != "":
		w, werr := findWorkload(*workload)
		if werr != nil {
			fail(werr)
		}
		ok = runWorkload(w, o, os.Stdout)
	default:
		ok, err = runAll(o)
	}
	if err != nil {
		fail(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rxperf:", err)
	os.Exit(2)
}

// args returns the flags a child process runs workload w with under o.
func (o options) args(w string) []string {
	t := "0"
	if o.trace {
		t = "1"
	}
	return []string{"-workload", w, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.budget.Seconds(), 'g', -1, 64), "-trace", t, "-trace-dir", o.traceDir}
}

// report is the benchmark's final JSON line.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload in this process, prints each metric on a
// line of its own and then the report, and returns whether every check
// passed.
func runWorkload(w workload, o options, out io.Writer) bool {
	t := &tally{log: os.Stderr}
	var m map[string]float64
	defs := endToEnd
	if o.trace {
		m = runTraced(w, o, t, filepath.Join(o.traceDir, w.name), out)
		defs = perLayer()
	} else {
		m = runEndToEnd(w, o, t)
		if t.attempted > 0 {
			m["failed_frac"] = float64(t.failed) / float64(t.attempted)
		}
	}
	rep := report{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]jsonMetric{}}
	complete := true
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "FAIL %s: metric %s has no value\n", w.name, d.name)
			complete = false
			v = 0
		}
		rep.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		printMetric(out, w.name, d.name, v, d.unit)
	}
	if !o.trace {
		for _, d := range endToEndReported {
			if v, ok := m[d.name]; ok {
				printMetric(out, w.name, d.name, v, d.unit)
			}
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0 && complete
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(out, string(line))
	return rep.Correct
}

// printMetric prints one metric line: "metric <workload> <name> <value>
// <unit>", the value with all its digits.
func printMetric(out io.Writer, workload, name string, v float64, unit string) {
	fmt.Fprintf(out, "metric  %-13s %-38s %24s %s\n", workload, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
}

// childResult is what a workload's child process reported.
type childResult struct {
	metrics map[string]float64
	report  report
	ok      bool
}

// runChild runs workload w in a child process of this binary, echoing its
// output, and returns the metrics it printed.
func runChild(w string, o options) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.Command(exe, o.args(w)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childResult{}, err
	}
	if err := cmd.Start(); err != nil {
		return childResult{}, err
	}
	r := childResult{metrics: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		last = line
		if f := strings.Fields(line); len(f) == 5 && f[0] == "metric" {
			if v, err := strconv.ParseFloat(f[3], 64); err == nil {
				r.metrics[f[2]] = v
			}
		}
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	if scanErr != nil {
		return r, scanErr
	}
	if err := json.Unmarshal([]byte(last), &r.report); err != nil {
		return r, fmt.Errorf("workload %s: no report line: %w", w, err)
	}
	r.ok = waitErr == nil && r.report.Correct
	return r, nil
}

// runAll runs every workload, each in its own child process.
func runAll(o options) (bool, error) {
	ok := true
	attempted, failed := 0, 0
	for _, w := range workloads {
		r, err := runChild(w.name, o)
		if err != nil {
			return false, err
		}
		ok = ok && r.ok
		attempted += r.report.Attempted
		failed += r.report.Failed
	}
	fmt.Printf("rxperf: %d workloads, %d runs attempted, %d failed\n", len(workloads), attempted, failed)
	return ok, nil
}
