// Command rxprof prints an OProfile-style cycle breakdown of the receive
// path for one configuration, as a table and a bar chart, followed by every
// section the run's result has: the flow table's per-shard demux statistics
// (flows, demux hits, steals; the eight busiest shards), the demux and
// memory summary, the aggregation engines' flush reasons and the per-stage
// latency breakdown, plus the TIME_WAIT, steering and loss sections when
// the run exercised them:
//
//	rxprof -system xen -opt full
//	rxprof -system up -opt none -limit 8
//	rxprof -system xen -queues 4 -conns 100
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/profile"
)

var (
	system   = flag.String("system", "up", "receiver system: up, smp, xen")
	opt      = flag.String("opt", "full", "receive path: none, ra, full")
	limit    = flag.Int("limit", 0, "aggregation limit override (0 = default 20)")
	nics     = flag.Int("nics", 5, "number of Gigabit NICs")
	queues   = flag.Int("queues", 1, "RSS queues / paravirtual I/O channels per NIC")
	conns    = flag.Int("conns", 0, "concurrent connections (0 = one per NIC)")
	duration = flag.Duration("duration", 150*time.Millisecond, "measured virtual duration")
	steer    = flag.Bool("steer", false,
		"enable dynamic flow steering (rebalancer + aRFS) and print the final indirection table and steering-rule occupancy")
	skew   = flag.Float64("skew", 0, "zipf rate-skew exponent for the flow population (0 = uniform)")
	window = flag.Int("window", 0,
		"per-flow resequencing window of the aggregation engines, in frames (0 = strict in-sequence)")
	reorderOneIn = flag.Int("reorder", 0,
		"displace every Nth forward frame on each link (the reorder fault injector; 0 = off)")
	reorderDist = flag.Int("reorder-distance", 1, "reorder displacement distance in frames (1 = adjacent swap)")
	lossOneIn   = flag.Int("loss", 0,
		"drop every Nth forward frame on each link, uniformly at random (the loss fault injector; 0 = off); prints the loss-recovery breakdown")
	burstLoss = flag.Float64("burst-loss", 0,
		"Gilbert-Elliott burst loss: stationary loss rate in [0,1) (0 = off; mutually exclusive with -loss)")
	sack       = flag.Bool("sack", false, "negotiate SACK on every connection (scoreboard recovery at the senders)")
	churnEvery = flag.Duration("churn", 0,
		"tear down and replace the oldest flow at this interval (0 = no churn); teardowns linger in TIME_WAIT")
	stormSize = flag.Int("storm", 0,
		"fire a restart storm one quarter into the measured interval against this many seeded TIME_WAIT entries (0 = no storm; enables tw_reuse)")
	registered = flag.Int("registered", 0,
		"total registered endpoints including an idle population beyond -conns (0 = active connections only); the connscale axis")
)

// busiestShards is how many of the busiest flow-table shards are listed.
const busiestShards = 8

// histogramThreshold is the registered population beyond which the
// per-shard listing gives way to the occupancy histogram: a raw dump of
// 128 shards says nothing at 1M endpoints, while load-factor and
// probe-length distributions say everything.
const histogramThreshold = 10_000

func main() {
	log.SetFlags(0)
	log.SetPrefix("rxprof: ")
	flag.Parse()

	sys, err := repro.ParseSystem(*system)
	if err != nil {
		log.Fatal(err)
	}
	xen := sys == repro.SystemXen
	level, err := parseOpt(*opt)
	if err != nil {
		log.Fatal(err)
	}

	cfg := repro.DefaultStreamConfig(sys, level)
	cfg.NICs = *nics
	cfg.Queues = *queues
	cfg.Connections = *conns
	cfg.AggLimit = *limit
	cfg.FlowSkew = *skew
	cfg.DurationNs = uint64(duration.Nanoseconds())
	cfg.ReorderWindow = *window
	cfg.Reorder = repro.ReorderConfig{OneIn: *reorderOneIn, Distance: *reorderDist}
	lossy := *lossOneIn > 0 || *burstLoss > 0
	if lossy {
		cfg.Loss = repro.LossConfig{OneIn: *lossOneIn, BurstRate: *burstLoss}
	}
	cfg.SACK = *sack
	cfg.ChurnIntervalNs = uint64(churnEvery.Nanoseconds())
	cfg.RegisteredFlows = *registered
	if *stormSize > 0 {
		cfg.TimeWaitReuse = true
		cfg.RestartStorm = repro.RestartStormConfig{
			AtNs:            cfg.WarmupNs + cfg.DurationNs/4,
			PrefillTimeWait: *stormSize,
		}
	}
	if *steer {
		cfg.Steering = repro.SteerConfig{Enabled: true, ARFS: true}
	}
	// Latency telemetry (the stage breakdown and the recovery-latency
	// histogram) costs the run nothing: observation never perturbs it.
	cfg.Telemetry.Latency = true
	res, err := repro.RunStream(cfg)
	if err != nil {
		log.Fatal(err)
	}

	title := fmt.Sprintf("%s / %s: %.0f Mb/s, %.0f%% CPU, %.0f cycles/packet, aggregation %.1fx",
		sys, level, res.ThroughputMbps, res.CPUUtil*100, res.CyclesPerPacket, res.AggFactor)
	cats := profile.NativeCategories
	if xen {
		cats = profile.XenCategories
	}
	fmt.Print(profile.Table(title, res.Breakdown, cats))
	fmt.Println()
	fmt.Print(profile.Bar("cycles/packet by category", res.Breakdown, cats, 50))
	fmt.Println()
	printShardStats(res)
	printDemux(res)
	printTimeWait(res)
	if *steer {
		fmt.Println()
		printSteer(res)
	}
	fmt.Println()
	printAggEngines(res)
	fmt.Println()
	printLatency(res)
	if lossy || *sack {
		fmt.Println()
		printLoss(res)
	}
}

// printLoss renders the loss-recovery breakdown: what the injector
// dropped, how the senders recovered (fast retransmit vs RTO vs SACK
// hole fills vs limited transmit), and how long each loss episode took
// from first retransmission to cumulative-ACK catch-up.
func printLoss(res repro.StreamResult) {
	l := res.Loss
	fmt.Printf("loss: %d frames dropped on the wire\n", res.LostFrames)
	fmt.Printf("recovery: %d fast retransmits, %d RTOs, %d SACK retransmits, %d limited transmits\n",
		l.FastRetransmits, l.RTOs, l.SACKRetransmits, l.LimitedTransmits)
	fmt.Printf("sack: %d blocks received by senders\n", l.SACKBlocksIn)
	r := res.Latency.Recovery
	if r.Count == 0 {
		fmt.Println("recovery latency: no completed episodes in the measured interval")
		return
	}
	us := func(ns uint64) float64 { return float64(ns) / 1e3 }
	fmt.Printf("recovery latency (%d episodes, µs): mean %.1f, p50 %.1f, p99 %.1f, max %.1f\n",
		r.Count, us(r.MeanNs), us(r.P50Ns), us(r.P99Ns), us(r.MaxNs))
}

// printLatency renders the per-stage residency breakdown: where a
// delivered message's end-to-end latency was spent, stage by stage. The
// five stages partition the e2e time exactly (the share column sums to
// 100%), so a fat stage is a real place to look, not an artifact of
// overlapping intervals.
func printLatency(res repro.StreamResult) {
	lat := res.Latency
	if !lat.Enabled || lat.E2E.Count == 0 {
		fmt.Println("latency: no samples collected")
		return
	}
	us := func(ns uint64) float64 { return float64(ns) / 1e3 }
	fmt.Printf("latency per delivered message (%d samples, µs):\n", lat.E2E.Count)
	fmt.Printf("%-9s %9s %9s %9s %9s %9s %7s\n",
		"stage", "mean", "p50", "p99", "p999", "max", "share")
	for _, s := range lat.Stages {
		share := 0.0
		if lat.E2E.SumNs > 0 {
			share = float64(s.SumNs) * 100 / float64(lat.E2E.SumNs)
		}
		fmt.Printf("%-9s %9.1f %9.1f %9.1f %9.1f %9.1f %6.1f%%\n",
			s.Stage, us(s.MeanNs), us(s.P50Ns), us(s.P99Ns), us(s.P999Ns), us(s.MaxNs), share)
	}
	e := lat.E2E
	fmt.Printf("%-9s %9.1f %9.1f %9.1f %9.1f %9.1f %7s\n",
		"e2e", us(e.MeanNs), us(e.P50Ns), us(e.P99Ns), us(e.P999Ns), us(e.MaxNs), "100%")
	if lat.RTT.Count > 0 {
		r := lat.RTT
		fmt.Printf("%-9s %9.1f %9.1f %9.1f %9.1f %9.1f\n",
			"rtt", us(r.MeanNs), us(r.P50Ns), us(r.P99Ns), us(r.P999Ns), us(r.MaxNs))
	}
}

// printAggEngines renders each aggregation engine's flush-reason
// taxonomy and resequencing-window activity — how aggregates end (the
// Limit, a §3.1 mismatch, idle/evict/steer flushes, window overflow) and
// how the window behaved (held/stitched/drained), per CPU and in total.
func printAggEngines(res repro.StreamResult) {
	if len(res.EngineAgg) == 0 {
		fmt.Println("aggregation engines: none (baseline path)")
		return
	}
	fmt.Println("aggregation engines (flush reasons and resequencing window):")
	fmt.Printf("%-6s %9s %8s %8s %7s %7s %7s %7s %7s %7s %6s %8s %8s\n",
		"cpu", "frames", "host", "coalesc",
		"limit", "mism", "idle", "evict", "steer", "ovflw",
		"held", "stitched", "drained")
	row := func(name string, s repro.AggStats) {
		fmt.Printf("%-6s %9d %8d %8d %7d %7d %7d %7d %7d %7d %6d %8d %8d\n",
			name, s.FramesIn, s.HostOut, s.Coalesced,
			s.FlushLimit, s.FlushMismatch, s.FlushIdle, s.FlushEvict,
			s.FlushSteer, s.FlushWindowOverflow,
			s.Held, s.Stitched, s.WindowTimeout)
	}
	for cpu, s := range res.EngineAgg {
		row(fmt.Sprintf("%d", cpu), s)
	}
	row("total", res.AggStats)
}

// printTimeWait renders the TIME_WAIT table's occupancy and SYN-time
// reuse activity (skipped when no flow ever lingered: churn- and
// storm-free runs tear nothing down).
func printTimeWait(res repro.StreamResult) {
	tw := res.TimeWait
	if tw.Entered == 0 {
		return
	}
	fmt.Printf("TIME_WAIT: %d entered, %d reaped, %d reused (%d refused), peak %d (%.0f KiB), lingering %d\n",
		tw.Entered, tw.Reaped, tw.Reused, tw.ReuseRefused,
		tw.Peak, float64(tw.PeakBytes)/1024, tw.Len)
	if res.Storm != nil {
		fmt.Printf("restart storm: %d torn down, %d reconnected on their own ports, %d retries, %d open failures\n",
			res.Storm.TornDown, res.Storm.Reconnected, res.Storm.Retries, res.Storm.OpenFailures)
	}
	if res.ChurnOpenFailures > 0 {
		fmt.Printf("WARNING: %d churn ticks could not open a replacement (port space exhausted)\n",
			res.ChurnOpenFailures)
	}
}

// printSteer renders the run's steering state: policy activity, rule-table
// occupancy and the final RSS indirection table (bucket → CPU).
func printSteer(res repro.StreamResult) {
	r := res.Steer
	if r == nil {
		fmt.Println("steering: no report (steering inactive)")
		return
	}
	fmt.Printf("steering: %d epochs (%d calm), %d bucket moves, util spread %.3f\n",
		r.Epochs, r.CalmEpochs, r.Moves, res.UtilSpread())
	fmt.Printf("aRFS rules: %d programmed, %d evicted, %d hits, %d live, %d app migrations\n",
		r.RulesProgrammed, r.RuleEvictions, r.RuleHits, r.RuleOccupancy, r.AppMigrations)
	fmt.Println("indirection table (bucket -> CPU):")
	const perRow = 32
	for base := 0; base < len(r.Indirection); base += perRow {
		end := base + perRow
		if end > len(r.Indirection) {
			end = len(r.Indirection)
		}
		fmt.Printf("  %3d:", base)
		for _, cpu := range r.Indirection[base:end] {
			fmt.Printf(" %d", cpu)
		}
		fmt.Println()
	}
}

// printShardStats summarizes the flow table: totals across all shards and
// the busiest individual shards, exposing how demux load, aggregation
// state and ownership violations (steals) distribute over the table.
func printShardStats(res repro.StreamResult) {
	// A shard is active if anything at all happened to it — including
	// miss- or steal-only activity, which is exactly what the warning
	// below points at.
	active := func(s repro.ShardStats) bool {
		return s.Endpoints > 0 || s.HostPackets > 0 || s.Misses > 0 || s.Steals > 0
	}
	var flows, occupied int
	var host, net, aggs, misses, steals uint64
	for _, s := range res.ShardStats {
		flows += s.Endpoints
		if active(s) {
			occupied++
		}
		host += s.HostPackets
		net += s.NetPackets
		aggs += s.Aggregates
		misses += s.Misses
		steals += s.Steals
	}
	fmt.Printf("flow table: %d shards (%d active), %d flows, %d demux hits, %d misses, %d steals\n",
		len(res.ShardStats), occupied, flows, host, misses, steals)
	if steals > 0 {
		fmt.Println("WARNING: non-zero steals — some shard was touched by a CPU that does not own it")
	}
	if res.Demux.Entries >= histogramThreshold {
		// A raw busiest-shards dump is unreadable noise at this scale; the
		// occupancy histogram (printDemux) carries the signal instead.
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
	n := min(busiestShards, len(idx))
	fmt.Printf("%-7s %7s %10s %10s %8s %8s %8s\n",
		"shard", "flows", "hits", "frames", "aggs", "misses", "steals")
	for _, i := range idx[:n] {
		s := res.ShardStats[i]
		if !active(s) {
			break // the sort puts idle shards last: nothing left to show
		}
		fmt.Printf("%-7d %7d %10d %10d %8d %8d %8d\n",
			i, s.Endpoints, s.HostPackets, s.NetPackets, s.Aggregates, s.Misses, s.Steals)
	}
}

// printDemux renders the demux structure summary: footprint and
// capacity-model charge, and — once the table holds entries — the
// per-shard load-factor spread and the probe-length distribution, the
// readable replacement for per-shard dumps at 1M endpoints.
func printDemux(res repro.StreamResult) {
	d := res.Demux
	fmt.Printf("demux: %d entries, %.1f MiB structure, %d cycles charged (%.1f/host pkt)\n",
		d.Entries, float64(d.Bytes)/(1<<20), res.DemuxCycles, res.DemuxCyclesPerPacket())
	fmt.Printf("memory budget: %.1f MiB total (%.1f endpoints, %.1f timewait, %.1f table), peak %.1f MiB\n",
		float64(res.Mem.TotalBytes)/(1<<20), float64(res.Mem.EndpointBytes)/(1<<20),
		float64(res.Mem.TimeWaitBytes)/(1<<20), float64(res.Mem.TableBytes)/(1<<20),
		float64(res.Mem.PeakBytes)/(1<<20))
	if len(d.ProbeHist) == 0 {
		return
	}
	fmt.Printf("shard load factor: min %.2f / p50 %.2f / max %.2f over %d slots\n",
		d.LoadMin, d.LoadP50, d.LoadMax, d.Slots)
	fmt.Printf("probe length: min %d / p50 %d / max %d\n", d.ProbeMin, d.ProbeP50, d.ProbeMax)
	var total, peak uint64
	for _, c := range d.ProbeHist {
		total += c
		if c > peak {
			peak = c
		}
	}
	for i, c := range d.ProbeHist {
		bar := ""
		if peak > 0 {
			bar = strings.Repeat("#", int(c*40/peak))
		}
		fmt.Printf("  %3d %9d (%5.1f%%) %s\n", i+1, c, float64(c)*100/float64(total), bar)
	}
}

func parseOpt(s string) (repro.OptLevel, error) {
	switch s {
	case "none", "original":
		return repro.OptNone, nil
	case "ra", "aggregation":
		return repro.OptAggregation, nil
	case "full", "optimized":
		return repro.OptFull, nil
	}
	return 0, fmt.Errorf("unknown opt level %q (want none, ra, full)", s)
}
