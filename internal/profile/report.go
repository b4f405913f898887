package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/aggregate"
	"repro/internal/netstack"
	"repro/internal/sim"
)

// busiestShards is how many of the busiest flow-table shards Report lists.
const busiestShards = 8

// histogramThreshold is the registered population beyond which the
// per-shard listing gives way to the occupancy histogram: a raw dump of
// 128 shards says nothing at 1M endpoints, while load-factor and
// probe-length distributions say everything.
const histogramThreshold = 10_000

// Report renders one stream run as an OProfile-style cycle breakdown, as a
// table and a bar chart, followed by every section the run's result has:
// the flow table's demux totals and its eight busiest shards (omitted at
// histogramThreshold entries and above), the demux and memory summary
// with the probe-length histogram, the TIME_WAIT table when a flow
// lingered, the aggregation engines' flush reasons, the per-stage latency
// breakdown, and the loss-recovery breakdown when cfg injected loss or
// negotiated SACK.
func Report(cfg sim.StreamConfig, res sim.StreamResult) string {
	var w strings.Builder
	title := fmt.Sprintf("%s / %s: %.0f Mb/s, %.0f%% CPU, %.0f cycles/packet, aggregation %.1fx",
		cfg.System, cfg.Opt, res.ThroughputMbps, res.CPUUtil*100, res.CyclesPerPacket, res.AggFactor)
	cats := NativeCategories
	if cfg.System == sim.SystemXen {
		cats = XenCategories
	}
	w.WriteString(Table(title, res.Breakdown, cats))
	w.WriteString("\n")
	w.WriteString(Bar("cycles/packet by category", res.Breakdown, cats, 50))
	w.WriteString("\n")
	writeShardStats(&w, res)
	writeDemux(&w, res)
	writeTimeWait(&w, res)
	w.WriteString("\n")
	writeAggEngines(&w, res)
	w.WriteString("\n")
	writeLatency(&w, res)
	if cfg.Loss.OneIn > 0 || cfg.Loss.BurstRate > 0 || cfg.SACK {
		w.WriteString("\n")
		writeLoss(&w, res)
	}
	return w.String()
}

// us converts simulated nanoseconds to microseconds.
func us(ns uint64) float64 { return float64(ns) / 1e3 }

// writeLoss renders the loss-recovery breakdown: what the injector
// dropped, how the senders recovered (fast retransmit vs RTO vs SACK
// hole fills vs limited transmit), and how long each loss episode took
// from first retransmission to cumulative-ACK catch-up.
func writeLoss(w io.Writer, res sim.StreamResult) {
	l := res.Loss
	fmt.Fprintf(w, "loss: %d frames dropped on the wire\n", res.LostFrames)
	fmt.Fprintf(w, "recovery: %d fast retransmits, %d RTOs, %d SACK retransmits, %d limited transmits\n",
		l.FastRetransmits, l.RTOs, l.SACKRetransmits, l.LimitedTransmits)
	fmt.Fprintf(w, "sack: %d blocks received by senders\n", l.SACKBlocksIn)
	r := res.Latency.Recovery
	if r.Count == 0 {
		fmt.Fprintln(w, "recovery latency: no completed episodes in the measured interval")
		return
	}
	fmt.Fprintf(w, "recovery latency (%d episodes, µs): mean %.1f, p50 %.1f, p99 %.1f, max %.1f\n",
		r.Count, us(r.MeanNs), us(r.P50Ns), us(r.P99Ns), us(r.MaxNs))
}

// writeLatency renders the per-stage residency breakdown: where a
// delivered message's end-to-end latency was spent, stage by stage. The
// five stages partition the e2e time exactly (the share column sums to
// 100%), so a fat stage is a real place to look, not an artifact of
// overlapping intervals.
func writeLatency(w io.Writer, res sim.StreamResult) {
	lat := res.Latency
	if !lat.Enabled || lat.E2E.Count == 0 {
		fmt.Fprintln(w, "latency: no samples collected")
		return
	}
	fmt.Fprintf(w, "latency per delivered message (%d samples, µs):\n", lat.E2E.Count)
	fmt.Fprintf(w, "%-9s %9s %9s %9s %9s %9s %7s\n",
		"stage", "mean", "p50", "p99", "p999", "max", "share")
	for _, s := range lat.Stages {
		share := 0.0
		if lat.E2E.SumNs > 0 {
			share = float64(s.SumNs) * 100 / float64(lat.E2E.SumNs)
		}
		fmt.Fprintf(w, "%-9s %9.1f %9.1f %9.1f %9.1f %9.1f %6.1f%%\n",
			s.Stage, us(s.MeanNs), us(s.P50Ns), us(s.P99Ns), us(s.P999Ns), us(s.MaxNs), share)
	}
	e := lat.E2E
	fmt.Fprintf(w, "%-9s %9.1f %9.1f %9.1f %9.1f %9.1f %7s\n",
		"e2e", us(e.MeanNs), us(e.P50Ns), us(e.P99Ns), us(e.P999Ns), us(e.MaxNs), "100%")
	if r := lat.RTT; r.Count > 0 {
		fmt.Fprintf(w, "%-9s %9.1f %9.1f %9.1f %9.1f %9.1f\n",
			"rtt", us(r.MeanNs), us(r.P50Ns), us(r.P99Ns), us(r.P999Ns), us(r.MaxNs))
	}
}

// writeAggEngines renders each aggregation engine's flush-reason
// taxonomy and resequencing-window activity — how aggregates end (the
// Limit, a §3.1 mismatch, idle/evict flushes, window overflow) and
// how the window behaved (held/stitched/drained), per CPU and in total.
func writeAggEngines(w io.Writer, res sim.StreamResult) {
	if len(res.EngineAgg) == 0 {
		fmt.Fprintln(w, "aggregation engines: none (baseline path)")
		return
	}
	fmt.Fprintln(w, "aggregation engines (flush reasons and resequencing window):")
	fmt.Fprintf(w, "%-6s %9s %8s %8s %7s %7s %7s %7s %7s %6s %8s %8s\n",
		"cpu", "frames", "host", "coalesc",
		"limit", "mism", "idle", "evict", "ovflw",
		"held", "stitched", "drained")
	row := func(name string, s aggregate.Stats) {
		fmt.Fprintf(w, "%-6s %9d %8d %8d %7d %7d %7d %7d %7d %6d %8d %8d\n",
			name, s.FramesIn, s.HostOut, s.Coalesced,
			s.FlushLimit, s.FlushMismatch, s.FlushIdle, s.FlushEvict,
			s.FlushWindowOverflow,
			s.Held, s.Stitched, s.WindowTimeout)
	}
	for cpu, s := range res.EngineAgg {
		row(fmt.Sprintf("%d", cpu), s)
	}
	row("total", res.AggStats)
}

// writeTimeWait renders the TIME_WAIT table's occupancy (skipped when no
// flow ever lingered: churn-free runs tear nothing down).
func writeTimeWait(w io.Writer, res sim.StreamResult) {
	tw := res.TimeWait
	if tw.Entered == 0 {
		return
	}
	fmt.Fprintf(w, "TIME_WAIT: %d entered, %d reaped, peak %d (%.0f KiB), lingering %d\n",
		tw.Entered, tw.Reaped, tw.Peak, float64(tw.PeakBytes)/1024, tw.Len)
	if res.ChurnOpenFailures > 0 {
		fmt.Fprintf(w, "WARNING: %d churn ticks could not open a replacement (port space exhausted)\n",
			res.ChurnOpenFailures)
	}
}

// writeShardStats summarizes the flow table: totals across all shards and
// the busiest individual shards, exposing how demux load, aggregation
// state and ownership violations (steals) distribute over the table.
func writeShardStats(w io.Writer, res sim.StreamResult) {
	// A shard is active if anything at all happened to it — including
	// miss- or steal-only activity, which is exactly what the warning
	// below points at.
	active := func(s netstack.ShardStats) bool {
		return s.Endpoints > 0 || s.HostPackets > 0 || s.Misses > 0 || s.Steals > 0
	}
	var flows, occupied int
	var host, misses, steals uint64
	for _, s := range res.ShardStats {
		flows += s.Endpoints
		if active(s) {
			occupied++
		}
		host += s.HostPackets
		misses += s.Misses
		steals += s.Steals
	}
	fmt.Fprintf(w, "flow table: %d shards (%d active), %d flows, %d demux hits, %d misses, %d steals\n",
		len(res.ShardStats), occupied, flows, host, misses, steals)
	if steals > 0 {
		fmt.Fprintln(w, "WARNING: non-zero steals — some shard was touched by a CPU that does not own it")
	}
	if res.Demux.Entries >= histogramThreshold {
		// A raw busiest-shards dump is unreadable noise at this scale; the
		// occupancy histogram (writeDemux) carries the signal instead.
		return
	}
	idx := make([]int, len(res.ShardStats))
	for i := range idx {
		idx[i] = i
	}
	// Steal- and miss-only shards must outrank merely idle ones, or the
	// listing could hide the shard that triggered the warning above.
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := res.ShardStats[idx[a]], res.ShardStats[idx[b]]
		if sa.Steals != sb.Steals {
			return sa.Steals > sb.Steals
		}
		if sa.HostPackets != sb.HostPackets {
			return sa.HostPackets > sb.HostPackets
		}
		if sa.Misses != sb.Misses {
			return sa.Misses > sb.Misses
		}
		return sa.Endpoints > sb.Endpoints
	})
	fmt.Fprintf(w, "%-7s %7s %10s %10s %8s %8s %8s\n",
		"shard", "flows", "hits", "frames", "aggs", "misses", "steals")
	for _, i := range idx[:min(busiestShards, len(idx))] {
		s := res.ShardStats[i]
		if !active(s) {
			break // the sort puts idle shards last: nothing left to show
		}
		fmt.Fprintf(w, "%-7d %7d %10d %10d %8d %8d %8d\n",
			i, s.Endpoints, s.HostPackets, s.NetPackets, s.Aggregates, s.Misses, s.Steals)
	}
}

// writeDemux renders the demux structure summary: footprint and
// capacity-model charge, and — once the table holds entries — the
// per-shard load-factor spread and the probe-length distribution, the
// readable replacement for per-shard dumps at 1M endpoints.
func writeDemux(w io.Writer, res sim.StreamResult) {
	d := res.Demux
	fmt.Fprintf(w, "demux: %d entries, %.1f MiB structure, %d cycles charged (%.1f/host pkt)\n",
		d.Entries, float64(d.Bytes)/(1<<20), res.DemuxCycles, res.DemuxCyclesPerPacket())
	fmt.Fprintf(w, "memory budget: %.1f MiB total (%.1f endpoints, %.1f timewait, %.1f table), peak %.1f MiB\n",
		float64(res.Mem.TotalBytes)/(1<<20), float64(res.Mem.EndpointBytes)/(1<<20),
		float64(res.Mem.TimeWaitBytes)/(1<<20), float64(res.Mem.TableBytes)/(1<<20),
		float64(res.Mem.PeakBytes)/(1<<20))
	if len(d.ProbeHist) == 0 {
		return
	}
	fmt.Fprintf(w, "shard load factor: min %.2f / p50 %.2f / max %.2f over %d slots\n",
		d.LoadMin, d.LoadP50, d.LoadMax, d.Slots)
	fmt.Fprintf(w, "probe length: min %d / p50 %d / max %d\n", d.ProbeMin, d.ProbeP50, d.ProbeMax)
	var total, peak uint64
	for _, c := range d.ProbeHist {
		total += c
		peak = max(peak, c)
	}
	for i, c := range d.ProbeHist {
		bar := ""
		if peak > 0 {
			bar = strings.Repeat("#", int(c*40/peak))
		}
		fmt.Fprintf(w, "  %3d %9d (%5.1f%%) %s\n", i+1, c, float64(c)*100/float64(total), bar)
	}
}
