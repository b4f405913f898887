// Package repro reproduces "Optimizing TCP Receive Performance"
// (Menon & Zwaenepoel, USENIX ATC 2008) as a simulation-backed Go library.
//
// The paper's two contributions — Receive Aggregation (a software LRO below
// the network stack) and Acknowledgment Offload (ACK template expansion at
// the driver) — are implemented over a full functional substrate: Ethernet/
// IPv4/TCP codecs, an sk_buff-style buffer layer, NAPI-style drivers with
// e1000-like NIC models, a TCP endpoint with the paper's §3.4 protocol
// modifications, a Xen-like network virtualization stack, and a calibrated
// cycle-cost model that reprices the receive path under hardware
// prefetching (the paper's §2 architectural argument).
//
// This facade exposes the experiment runners that regenerate every table
// and figure of the paper's evaluation; see the baseline table in
// bench/rxperf/README.md for the measured record and ARCHITECTURE.md,
// "Model substitutions", for the substitution rationale.
//
// Quick start:
//
//	res, err := repro.RunStream(repro.StreamConfig{
//		System: repro.SystemNativeUP,
//		Opt:    repro.OptFull,
//		NICs:   5,
//	})
//	fmt.Printf("%.0f Mb/s at %.0f%% CPU\n", res.ThroughputMbps, res.CPUUtil*100)
package repro

import (
	"fmt"

	"repro/internal/aggregate"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/memmodel"
	"repro/internal/netstack"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Systems under test (paper §5).
const (
	// SystemNativeUP is the uniprocessor Linux receiver.
	SystemNativeUP = sim.SystemNativeUP
	// SystemNativeSMP is the dual-core SMP Linux receiver.
	SystemNativeSMP = sim.SystemNativeSMP
	// SystemXen is the Linux guest on the Xen VMM.
	SystemXen = sim.SystemXen
)

// Receive-path variants.
const (
	// OptNone is the unmodified stack ("Original").
	OptNone = sim.OptNone
	// OptAggregation enables Receive Aggregation only.
	OptAggregation = sim.OptAggregation
	// OptFull enables both optimizations ("Optimized").
	OptFull = sim.OptFull
)

// Prefetch configurations (paper Figure 1).
const (
	PrefetchNone    = memmodel.PrefetchNone
	PrefetchPartial = memmodel.PrefetchPartial
	PrefetchFull    = memmodel.PrefetchFull
)

// Re-exported experiment types: see internal/sim for field documentation.
type (
	// SystemKind selects the receiver machine.
	SystemKind = sim.SystemKind
	// OptLevel selects the receive-path variant.
	OptLevel = sim.OptLevel
	// StreamConfig configures a bulk-receive experiment (§5.1).
	StreamConfig = sim.StreamConfig
	// StreamResult reports a bulk-receive run.
	StreamResult = sim.StreamResult
	// RRConfig configures a request/response experiment (§5.4).
	RRConfig = sim.RRConfig
	// RRResult reports a request/response run.
	RRResult = sim.RRResult
	// Breakdown is a per-packet cycle breakdown by overhead category.
	Breakdown = cycles.Breakdown
	// Category is one overhead category (per-byte, rx, buffer, ...).
	Category = cycles.Category
	// CostParams is a machine cost profile.
	CostParams = cost.Params
	// ShardStats is one flow-table shard's demux counters (flows, demux
	// hits, steals), reported per shard in StreamResult.ShardStats.
	ShardStats = netstack.ShardStats
	// SteerConfig holds the dynamic-flow-steering knobs of a stream run
	// (indirection rebalancing, accelerated RFS).
	SteerConfig = sim.SteerConfig
	// SteerReport summarizes a run's steering activity (indirection
	// moves, rule-table occupancy, app migrations).
	SteerReport = sim.SteerReport
	// ReorderConfig tunes the link-level reorder fault injector
	// (adjacent swaps / k-distance displacement at a deterministic rate).
	ReorderConfig = sim.ReorderConfig
	// LossConfig tunes the link-level loss fault injector (uniform 1-in-N
	// or Gilbert-Elliott bursts, deterministic per-link drop sequences).
	LossConfig = sim.LossConfig
	// LossReport sums the sender endpoints' loss-recovery activity over
	// the measured interval (StreamResult.Loss).
	LossReport = sim.LossReport
	// AggStats is one aggregation engine's counter set: flush-reason
	// taxonomy (Limit/Mismatch/Idle/Evict/Steer/WindowOverflow) and
	// resequencing-window activity (Held/Stitched/WindowTimeout,
	// drain-time run stitching).
	AggStats = aggregate.Stats
	// RestartStormConfig tunes the restart-storm workload: near-
	// simultaneous teardown of a flow fraction, same-four-tuple redials,
	// and a seeded TIME_WAIT backlog (StreamConfig.RestartStorm).
	RestartStormConfig = sim.RestartStormConfig
	// StormReport summarizes a run's restart-storm activity
	// (StreamResult.Storm).
	StormReport = sim.StormReport
	// TimeWaitStats is the TIME_WAIT table summary: occupancy, peak,
	// modeled footprint and SYN-time reuse activity
	// (StreamResult.TimeWait).
	TimeWaitStats = netstack.TimeWaitStats
	// TableStats is the demux-table structure summary: footprint,
	// charged demux cycles, per-shard load factors and the probe-length
	// distribution (StreamResult.Demux).
	TableStats = netstack.TableStats
	// MemStats is the stack's modeled memory budget: endpoint slabs,
	// TIME_WAIT entries and the demux structure, with the run's peak
	// (StreamResult.Mem).
	MemStats = netstack.MemStats
	// TelemetryConfig selects a stream run's observation outputs — latency
	// histograms and activity spans (StreamConfig.Telemetry). Observation
	// cost is zero by construction: telemetry reads the clock, it never
	// schedules, so enabling it changes no other result field.
	TelemetryConfig = sim.TelemetryConfig
	// RPCConfig configures the request/response incast workload
	// (StreamConfig.RPC): synchronized request bursts to Connections
	// senders, per-message RTT histograms in StreamResult.Latency.
	RPCConfig = sim.RPCConfig
	// LatencyReport is a run's per-message latency telemetry: end-to-end,
	// RTT and per-stage residency summaries (StreamResult.Latency).
	LatencyReport = telemetry.LatencyReport
	// LatencySummary summarizes one latency histogram (count, mean,
	// p50/p99/p999, max — simulated nanoseconds).
	LatencySummary = telemetry.Summary
	// StageSummary is one receive-path stage's residency summary.
	StageSummary = telemetry.StageSummary
	// Span is one recorded activity interval (track, name, start,
	// duration) of the trace exporter.
	Span = telemetry.Span
)

// ParseSystem maps a CLI system name to its SystemKind: "up" (alias
// "native"), "smp", or "xen". The single mapping shared by the commands,
// so names never drift between tools.
func ParseSystem(s string) (SystemKind, error) {
	switch s {
	case "up", "native":
		return SystemNativeUP, nil
	case "smp":
		return SystemNativeSMP, nil
	case "xen":
		return SystemXen, nil
	}
	return 0, fmt.Errorf("unknown system %q (want up, smp, xen)", s)
}

// RunStream executes one bulk-receive experiment.
func RunStream(cfg StreamConfig) (StreamResult, error) { return sim.RunStream(cfg) }

// RunRR executes one request/response experiment.
func RunRR(cfg RRConfig) (RRResult, error) { return sim.RunRR(cfg) }

// DefaultStreamConfig mirrors the paper's five-NIC bulk setup.
func DefaultStreamConfig(system SystemKind, opt OptLevel) StreamConfig {
	return sim.DefaultStreamConfig(system, opt)
}

// DefaultRRConfig mirrors the paper's latency check.
func DefaultRRConfig(system SystemKind, opt OptLevel) RRConfig {
	return sim.DefaultRRConfig(system, opt)
}

// Machine cost profiles.
func NativeUP() CostParams   { return cost.NativeUP() }
func NativeUP38() CostParams { return cost.NativeUP38() }
func NativeSMP() CostParams  { return cost.NativeSMP() }
func XenGuest() CostParams   { return cost.XenGuest() }

// FormatBreakdown renders an OProfile-style table of a breakdown using the
// native category order.
func FormatBreakdown(title string, b Breakdown) string {
	return profile.Table(title, b, profile.NativeCategories)
}

// FormatXenBreakdown renders the Xen category order (Figures 6 and 10).
func FormatXenBreakdown(title string, b Breakdown) string {
	return profile.Table(title, b, profile.XenCategories)
}

// FormatComparison renders Original-vs-Optimized per category with
// reduction factors (Figures 8-10).
func FormatComparison(title string, orig, opt Breakdown, xen bool) string {
	cats := profile.NativeCategories
	if xen {
		cats = profile.XenCategories
	}
	return profile.Comparison(title, "Original", "Optimized", orig, opt, cats)
}
