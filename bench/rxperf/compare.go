package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

const (
	// recordRuns is the number of end-to-end runs per workload in each of
	// -record's two sets.
	recordRuns = 5
	// compareRuns is the number of end-to-end runs per workload whose
	// median -compare holds against the baseline.
	compareRuns = 3
)

// baseline is the committed record of two sets of runs of the same code:
// host metrics as each set's median and quartiles over its runs, simulated
// and model metrics as their exact value.
type baseline struct {
	Host      string                               `json:"host"`
	Seed      uint64                               `json:"seed"`
	Seconds   float64                              `json:"seconds"`
	Runs      int                                  `json:"runs_per_set"`
	Workloads map[string]map[string]baselineMetric `json:"workloads"`
}

type baselineMetric struct {
	Unit  string     `json:"unit"`
	Exact *float64   `json:"exact,omitempty"`
	Sets  []setStats `json:"sets,omitempty"`
}

type setStats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// allMetrics returns every declared metric by name.
func allMetrics() map[string]metricDef {
	defs := map[string]metricDef{}
	for _, list := range [][]metricDef{endToEnd, endToEndReported, perLayer()} {
		for _, d := range list {
			defs[d.name] = d
		}
	}
	return defs
}

// collect runs every workload runs times, end to end or traced as o says,
// and returns each metric's values per workload. ok is false if any run
// failed a check.
func collect(o options, runs int) (map[string]map[string][]float64, bool, error) {
	vals := map[string]map[string][]float64{}
	ok := true
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			res, err := runChild(w.name, o)
			if err != nil {
				return nil, false, err
			}
			ok = ok && res.ok
			if vals[w.name] == nil {
				vals[w.name] = map[string][]float64{}
			}
			for k, v := range res.metrics {
				vals[w.name][k] = append(vals[w.name][k], v)
			}
		}
	}
	return vals, ok, nil
}

// recordBaseline runs two sets of runs (recordRuns end-to-end runs and one
// traced run per workload each) and writes them to path. It reports false
// if a run failed or a simulated value differed between runs.
func recordBaseline(path string, o options) (bool, error) {
	defs := allMetrics()
	b := baseline{
		Host:      fmt.Sprintf("%d CPUs, %s %s/%s", runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		Seed:      o.seed,
		Seconds:   o.budget.Seconds(),
		Runs:      recordRuns,
		Workloads: map[string]map[string]baselineMetric{},
	}
	ok := true
	for set := 0; set < 2; set++ {
		for _, mode := range []struct {
			trace bool
			runs  int
		}{{false, recordRuns}, {true, 1}} {
			o.trace = mode.trace
			vals, runsOK, err := collect(o, mode.runs)
			if err != nil {
				return false, err
			}
			ok = ok && runsOK
			for w, metrics := range vals {
				if b.Workloads[w] == nil {
					b.Workloads[w] = map[string]baselineMetric{}
				}
				for name, xs := range metrics {
					d := defs[name]
					bm := b.Workloads[w][name]
					bm.Unit = d.unit
					if d.exact {
						for _, x := range xs {
							if bm.Exact == nil {
								bm.Exact = &x
							} else if *bm.Exact != x {
								fmt.Printf("FAIL %s %s: %v differs from %v between runs\n", w, name, x, *bm.Exact)
								ok = false
							}
						}
					} else {
						q1, q3 := quartiles(xs)
						bm.Sets = append(bm.Sets, setStats{Median: median(xs), Q1: q1, Q3: q3})
					}
					b.Workloads[w][name] = bm
				}
			}
		}
	}
	js, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return false, err
	}
	return ok, os.WriteFile(path, append(js, '\n'), 0o644)
}

// compareBaseline runs every workload compareRuns times with the
// baseline's seed and budget and prints each metric's delta against the baseline. Host
// deltas are reported against their bounds but do not fail; a simulated or
// model value that differs at all, or a failed check, does.
func compareBaseline(path string, o options) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return false, fmt.Errorf("reading %s: %w", path, err)
	}
	o.seed, o.budget = b.Seed, time.Duration(b.Seconds*float64(time.Second))
	vals, ok, err := collect(o, compareRuns)
	if err != nil {
		return false, err
	}
	defs := perLayer()
	if !o.trace {
		defs = append(append([]metricDef(nil), endToEnd...), endToEndReported...)
	}
	for _, w := range workloads {
		for _, d := range defs {
			xs, ran := vals[w.name][d.name]
			base, recorded := b.Workloads[w.name][d.name]
			if !ran && !recorded {
				continue // the metric does not apply to this workload
			}
			if !ran || !recorded {
				fmt.Printf("compare %-13s %-38s missing (ran %v, in baseline %v)\n", w.name, d.name, ran, recorded)
				ok = ok && !d.exact
				continue
			}
			now := median(xs)
			if d.exact {
				verdict := "same"
				if base.Exact == nil || *base.Exact != now {
					verdict, ok = "DRIFT", false
				}
				fmt.Printf("compare %-13s %-38s base %-22v now %-22v %s\n", w.name, d.name, deref(base.Exact), now, verdict)
				continue
			}
			var medians []float64
			for _, st := range base.Sets {
				medians = append(medians, st.Median)
			}
			ref := median(medians)
			fmt.Printf("compare %-13s %-38s base %-22.6g now %-22.6g %s\n", w.name, d.name, ref, now, hostVerdict(d, ref, now))
		}
	}
	return ok, nil
}

// hostVerdict describes a host metric's change from ref to now against its
// bound; a worsening counts only beyond both the bound and the floor.
func hostVerdict(d metricDef, ref, now float64) string {
	if ref == 0 {
		return "no baseline value"
	}
	delta := (now - ref) / ref
	v := fmt.Sprintf("%+.2f%%", 100*delta)
	if d.bound == 0 {
		return v
	}
	worse := now - ref
	if d.better == "higher" {
		worse = ref - now
	}
	switch {
	case worse <= 0:
		return v + " better"
	case worse > d.bound*ref && worse > d.floor:
		return v + fmt.Sprintf(" worse than the %.0f%% bound", 100*d.bound)
	}
	return v + fmt.Sprintf(" worse, within the %.0f%% bound", 100*d.bound)
}

func deref(p *float64) any {
	if p == nil {
		return "none"
	}
	return *p
}
