package main

import (
	"fmt"

	"repro"
	"repro/internal/cycles"
	"repro/internal/telemetry"
)

// workload is one named benchmark input. Every config is
// repro.DefaultStreamConfig plus the fields set here; ParallelScheduler is
// never set, so the benchmark follows whatever scheduler the simulator
// picks by default.
type workload struct {
	name string
	why  string
	cfg  func() repro.StreamConfig
}

// faultsLossSeed seeds faults-churn's loss injector. It is fixed, not taken
// from -seed, so that every workload's simulated results are one exact
// value that the benchmark can gate on without a tolerance.
const faultsLossSeed = 1

// workloads is the benchmark's workload table. All runs keep the default
// 40 ms of virtual warm-up. No config depends on -seed.
var workloads = []workload{
	{
		name: "paper-xen",
		why:  "the paper's Fig. 7 headline (Xen, Optimized, 5 links): CPU-bound, aggregation factor ~17, always the serial scheduler",
		cfg: func() repro.StreamConfig {
			c := repro.DefaultStreamConfig(repro.SystemXen, repro.OptFull)
			c.DurationNs = 2_000_000_000
			return c
		},
	},
	{
		name: "rss-smp-q2",
		why:  "highest frame rate, wire-limited at 8 links x 200 zipf flows over 2 RSS queues: per-frame host cost dominates",
		cfg: func() repro.StreamConfig {
			c := repro.DefaultStreamConfig(repro.SystemNativeSMP, repro.OptFull)
			c.NICs, c.Connections, c.FlowSkew, c.Queues = 8, 200, 1.1, 2
			c.DurationNs = 400_000_000
			return c
		},
	},
	{
		name: "connscale-1m",
		why:  "1M registered flows, no aggregation: every frame demuxes into a cold table and set-up registers the population",
		cfg: func() repro.StreamConfig {
			c := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptNone)
			c.NICs, c.Connections, c.FlowSkew = 4, 64, 1.1
			c.RegisteredFlows = 1_000_000
			c.DurationNs = 600_000_000
			return c
		},
	},
	{
		name: "rpc-incast",
		why:  "64-way 256-byte RPC incast, a closed loop: smallest packets, latency output, aggregation bypassed",
		cfg: func() repro.StreamConfig {
			c := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptFull)
			c.NICs, c.Connections = 1, 64
			c.RPC = repro.RPCConfig{Enabled: true, MessageBytes: 256}
			c.DurationNs = 4_000_000_000
			return c
		},
	},
	{
		name: "faults-churn",
		why:  "1% loss (fixed seed) with SACK, 2% reorder into a 4-frame window, 2 ms churn with TIME_WAIT reuse: the fault and flow-table write paths",
		cfg: func() repro.StreamConfig {
			c := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptFull)
			c.NICs, c.Connections, c.FlowSkew = 4, 80, 1.1
			c.Loss = repro.LossConfig{OneIn: 100, Seed: faultsLossSeed}
			c.SACK = true
			c.Reorder = repro.ReorderConfig{OneIn: 50, Distance: 1}
			c.ReorderWindow = 4
			c.ChurnIntervalNs = 2_000_000
			c.TimeWaitReuse = true
			c.DurationNs = 1_000_000_000
			return c
		},
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef declares one metric: name, unit and the direction in which it
// improves. bound is the share of the baseline by which it may worsen before
// it counts as a regression, and floor an absolute slack under which a
// worsening is never one. Metrics with exact set are simulated values, equal
// at full float64 precision from run to run; any drift is a model change.
type metricDef struct {
	name, unit, better string
	bound, floor       float64
	exact              bool
}

// exactBound is the gate on the simulated end-to-end metrics. They are
// deterministic and independent of -seed, so any drift is a model change;
// the bound is only nonzero so that it reads as a share.
const exactBound = 1e-6

// endToEnd are the end-to-end metrics every workload reports and the
// benchmark gates on, the set its final JSON line carries. "host" is the
// simulator program, "sim" the modelled receiver. Allocation per frame is
// deterministic and catches added per-frame work that allocates; the sim
// metrics are exact.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.05},
	{name: "host_alloc_bytes_per_frame", unit: "B/frame", better: "lower", bound: 0.05},
	{name: "host_allocs_per_frame", unit: "allocs/frame", better: "lower", bound: 0.05},
	{name: "sim_mbps", unit: "Mb/s", better: "higher", bound: exactBound, exact: true},
	{name: "sim_cycles_per_byte", unit: "cycles/B", better: "lower", bound: exactBound, exact: true},
	{name: "sim_cpu_util", unit: "fraction", better: "lower", bound: exactBound, exact: true},
}

// endToEndReported are end-to-end metrics that are printed, and compared
// by -compare, but not gated on. Host frame rate and peak RSS spread 9-32%
// and up to 22% between quartiles over ten runs on a shared host, as its
// speed drifts over minutes: wider than a 25% bound holds reliably, so a
// frame-rate change is judged from paired runs of two builds instead. The
// sim_rtt, RPC and paper metrics exist only on some workloads; failed_frac
// is zero on a healthy run.
var endToEndReported = []metricDef{
	{name: "host_frames_per_s", unit: "frames/s", better: "higher", bound: 0.10},
	{name: "host_peak_rss_mib", unit: "MiB", better: "lower", bound: 0.10, floor: 4},
	{name: "sim_rtt_p50_us", unit: "sim_us", better: "lower", exact: true},
	{name: "sim_rtt_p999_us", unit: "sim_us", better: "lower", exact: true},
	{name: "sim_rpc_rounds_per_s", unit: "rounds/s", better: "higher", exact: true},
	{name: "paper_err_pct", unit: "%", better: "lower", exact: true},
	{name: "failed_frac", unit: "fraction", better: "lower", exact: true},
}

// paperXenOptimizedMbps is Fig. 7's Xen Optimized throughput, the
// reference paper_err_pct measures paper-xen against.
const paperXenOptimizedMbps = 1877

// layerSiteMetrics are the per-call-site metrics of the layer pass.
var layerSiteMetrics = []struct{ suffix, unit string }{
	{"ns_per_call", "ns/call"},
	{"allocs_per_call", "allocs/call"},
	{"bytes_per_call", "B/call"},
	{"calls_per_frame", "calls/frame"},
	{"ns_per_frame", "ns/frame"},
}

// profPackages are the repro/internal packages the CPU-profile rollup
// reports, one layer each.
var profPackages = []string{
	"ackoff", "aggregate", "buf", "checksum", "core", "cost", "cycles",
	"driver", "ether", "ipv4", "memmodel", "netstack", "nic", "packet",
	"profile", "rss", "sim", "softirq", "steer", "tcp", "tcpwire",
	"telemetry", "xenvirt",
}

// perLayer returns the per-layer metrics of the traced run, in report order.
// None has a bound: they explain an end-to-end change, they do not gate one.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string, exact bool) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better, exact: exact})
	}
	for _, s := range layerSites {
		for _, m := range layerSiteMetrics {
			add("layer."+s.name+"."+m.suffix, m.unit, "lower", false)
		}
	}
	add("layer.covered_pct", "%", "higher", false)
	for c := cycles.Category(0); c < cycles.NumCategories; c++ {
		add("model.cyc_pkt."+c.String(), "cycles/frame", "lower", true)
	}
	add("model.agg.factor", "frames/packet", "higher", true)
	add("model.agg.flush_limit_pct", "%", "higher", true)
	add("model.agg.flush_idle_pct", "%", "lower", true)
	add("model.agg.flush_mismatch_pct", "%", "lower", true)
	add("model.agg.stitched_pct", "%", "higher", true)
	add("model.demux.cyc_per_pkt", "cycles/packet", "lower", true)
	add("model.demux.probe_max", "slots", "lower", true)
	add("model.tw.peak", "count", "lower", true)
	add("model.tw.reuse_granted_pct", "%", "higher", true)
	add("model.tcp.ooo_segs", "count", "lower", true)
	add("model.tcp.fast_rtx", "count", "lower", true)
	add("model.tcp.rtos", "count", "lower", true)
	add("model.tcp.sack_rtx", "count", "lower", true)
	for s := telemetry.Stage(0); int(s) < telemetry.NumStages; s++ {
		add("model.stage."+s.String()+".p50_us", "sim_us", "lower", true)
		add("model.stage."+s.String()+".p99_us", "sim_us", "lower", true)
	}
	add("model.cpu.util_max", "fraction", "lower", true)
	add("model.cpu.util_spread", "fraction", "lower", true)
	add("model.rtt.samples", "count", "higher", true)
	add("model.audit.util_over_1", "count", "lower", true)
	add("model.audit.over_wire_pct", "%", "lower", true)
	for _, p := range profPackages {
		add("prof."+p+".pct", "%", "lower", false)
	}
	add("prof.gc.pct", "%", "lower", false)
	add("prof.samples", "count", "higher", false)
	add("trace.overhead_pct", "%", "lower", false)
	return defs
}
