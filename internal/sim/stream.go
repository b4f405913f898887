package sim

import (
	"fmt"

	"repro/internal/aggregate"
	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/xenvirt"
)

// SystemKind selects the receiver system under test (paper §5.1).
type SystemKind int

const (
	// SystemNativeUP is the uniprocessor Linux receiver.
	SystemNativeUP SystemKind = iota
	// SystemNativeSMP is the dual-core SMP Linux receiver.
	SystemNativeSMP
	// SystemXen is the Linux guest on the Xen VMM.
	SystemXen
)

// String names the system as in the paper's figures.
func (k SystemKind) String() string {
	switch k {
	case SystemNativeUP:
		return "Linux UP"
	case SystemNativeSMP:
		return "Linux SMP"
	case SystemXen:
		return "Xen"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// OptLevel selects the receive-path variant.
type OptLevel int

const (
	// OptNone is the unmodified stack ("Original" in the figures).
	OptNone OptLevel = iota
	// OptAggregation enables Receive Aggregation only (§5.1 reports
	// this ablation: +26/36/45%).
	OptAggregation
	// OptFull enables Receive Aggregation and Acknowledgment Offload
	// ("Optimized" in the figures).
	OptFull
)

// String names the level.
func (o OptLevel) String() string {
	switch o {
	case OptNone:
		return "Original"
	case OptAggregation:
		return "RA only"
	case OptFull:
		return "Optimized"
	default:
		return fmt.Sprintf("OptLevel(%d)", int(o))
	}
}

// StreamConfig describes one bulk-receive experiment (the §5.1
// microbenchmark: netperf-style streams at maximum rate).
type StreamConfig struct {
	// System selects the receiver machine.
	System SystemKind
	// Opt selects the receive-path variant.
	Opt OptLevel
	// NICs is the number of Gigabit NICs/links (paper: 5).
	NICs int
	// Connections is the total number of concurrent connections, spread
	// round-robin over the NICs (paper: one per NIC for Figure 7; up to
	// 400 for Figure 12). Defaults to NICs.
	Connections int
	// AggLimit overrides the Aggregation Limit (0 = paper default 20).
	AggLimit int
	// DurationNs is the measured interval (after warm-up).
	DurationNs uint64
	// WarmupNs lets windows open and queues reach steady state before
	// measurement starts.
	WarmupNs uint64
	// Params overrides the machine cost profile (zero value: chosen by
	// System). Used by the prefetching study (Figure 1).
	Params *cost.Params
	// SenderQuantum overrides the sender interleave quantum.
	SenderQuantum int
	// MessageSize caps sender segments below the MSS (0 = full MSS).
	// The paper notes the optimizations do not help small-message
	// workloads (§5.5, §1) — sub-MSS segments still aggregate poorly
	// in byte terms and ACK policy differs.
	MessageSize int
	// CorruptOneIn injects a bit flip into every Nth delivered frame
	// (0 = never): failure injection for loss-recovery testing.
	CorruptOneIn int
	// Queues is the number of RSS receive queues per NIC, each pinned
	// to its own softirq CPU (0 or 1 = the paper's single-queue,
	// single-CPU receive path). On Xen this is also the number of
	// paravirtual I/O channels: netback steers bridged packets onto
	// per-vCPU netfront rings with the same Toeplitz hash the NIC used.
	Queues int
	// FlowSkew, when positive, skews per-flow offered rates with a
	// zipf-like profile (weight 1/(k+1)^FlowSkew for the k-th flow on a
	// link, scaled to keep every link oversubscribed): the heavy-hitter
	// traffic mix of real many-flow receivers.
	FlowSkew float64
	// ChurnIntervalNs, when non-zero, tears down the oldest flow and
	// starts a fresh one (new ports, fresh congestion window) every
	// interval: connection arrival/teardown churn exercising flow-table
	// insert/remove and cold-start aggregation. Teardown runs the full
	// FIN handshake: the sender's FIN consumes a sequence number, the
	// receiver's final ACK costs receive-path cycles, and the endpoint
	// lingers in the stack's TIME_WAIT table before unregistering.
	ChurnIntervalNs uint64
	// GuestVCPUs (Xen only) sets the guest vCPU / I/O channel count
	// independently of Queues (0 = Queues): the asymmetric paravirtual
	// topology where netback re-steers across the channels.
	GuestVCPUs int
	// Steering configures dynamic flow steering (zero value: static RSS,
	// the exact PR 2 pipeline).
	Steering SteerConfig
	// ReorderWindow sets the aggregation engines' per-flow resequencing
	// window in frames (0 = disabled, the strict flush-on-OOO engine —
	// bit-identical to the previous pipeline). Only meaningful on
	// optimized paths.
	ReorderWindow int
	// Reorder configures the deterministic reorder fault injector on
	// every link (zero value: no reordering).
	Reorder ReorderConfig
	// Loss configures the deterministic link-level loss injector (zero
	// value: lossless links — bit-identical to every prior pipeline).
	Loss LossConfig
	// SACK enables selective acknowledgments (RFC 2018) on every
	// connection: receiver block generation from the OOO queue, sender
	// scoreboard recovery (selective retransmission, limited transmit,
	// pipe accounting). Off, wire format and recovery behaviour are
	// bit-identical to the seed.
	SACK bool
	// NoTimestamps disables the TCP timestamp option on every connection.
	// Segments are then not aggregatable (§3.1), and TIME_WAIT reuse must
	// take the RFC 6191 sequence-number arm (ISN beyond the old
	// incarnation's RCV.NXT) instead of the timestamp arm.
	NoTimestamps bool
	// TimeWaitReuse enables SYN-time port reuse against lingering
	// TIME_WAIT entries (Linux tcp_tw_reuse, RFC 6191 admissibility):
	// a reconnect colliding with a lingering four-tuple may recycle the
	// old incarnation instead of waiting out the 2·MSL linger. Off, a
	// colliding reconnect backs off until the reap — the seed behaviour,
	// which the goldens pin.
	TimeWaitReuse bool
	// RestartStorm configures the restart-storm teardown workload (zero
	// value: no storm).
	RestartStorm RestartStormConfig
	// FlowLayout selects the flow-table shard layout (zero value: the
	// cache-conscious open-addressed layout; LayoutSeedMap keeps the
	// Go-map shards as the priced baseline).
	FlowLayout netstack.FlowLayout
	// RegisteredFlows, when above Connections, grows the registered
	// endpoint population to this total by seeding idle flows: registered
	// connections that receive no traffic during the run but occupy demux
	// table slots and endpoint slab bytes, so the active subset's lookups
	// walk a realistically cold, realistically large table (the connscale
	// axis, 10k → 1M).
	RegisteredFlows int
	// MaxTimeWaitBuckets caps the TIME_WAIT population
	// (tcp_max_tw_buckets, split across shards; 0 = unlimited), and
	// TimeWaitEvictOldest selects the over-cap behavior: false refuses
	// new entries (the closing flow skips TIME_WAIT — Linux's default),
	// true evicts the oldest-deadline entry early.
	MaxTimeWaitBuckets  int
	TimeWaitEvictOldest bool
	// ParallelScheduler runs the simulation on per-CPU and per-link event
	// lanes with a deterministic epoch merge (parsched.go) instead of the
	// single serial event heap. Results are bit-identical to the serial
	// schedule; only wall-clock time changes. Configurations the lane
	// partition cannot express — Xen (frontend/backend share vCPUs) and
	// dynamic steering (bucket ownership changes mid-run) — fall back to
	// the serial path. Off (the default) leaves the serial path untouched.
	ParallelScheduler bool
	// Telemetry selects the run's observation outputs (latency histograms,
	// activity spans). Observation cost is zero by construction — it reads
	// the clock, it never schedules — so enabling it changes no throughput
	// or cycle field of the result; it only fills Latency and feeds
	// SpanSink.
	Telemetry TelemetryConfig
	// RPC, when enabled, replaces the bulk streams with the
	// request/response incast workload (implies Telemetry.Latency).
	RPC RPCConfig
}

// RestartStormConfig tunes the restart-storm workload: a near-
// simultaneous teardown of a fraction of the flow population followed by
// redials of the very same four-tuples, against a configurable backlog
// of lingering TIME_WAIT entries.
type RestartStormConfig struct {
	// AtNs fires the storm at this virtual time (0 = no storm).
	AtNs uint64
	// Fraction of the live flows torn down at the storm instant
	// (0 = 0.5; clamped so at least one flow survives).
	Fraction float64
	// ReconnectDelayNs delays each victim's redial of its own four-tuple
	// (0 = 2 ms: inside the 8 ms TIME_WAIT linger so the redial collides
	// with the lingering entry, and past one timestamp tick so the
	// RFC 6191 check can admit it).
	ReconnectDelayNs uint64
	// RetryNs is the redial back-off after a refused or premature
	// attempt (0 = 1 ms).
	RetryNs uint64
	// PrefillTimeWait seeds this many synthetic lingering entries at the
	// storm instant — the backlog of the restarted process's previous
	// life, scaling the TIME_WAIT population far beyond what the live
	// port space admits (the 1k → 100k+ sweep).
	PrefillTimeWait int
	// PrefillSpreadNs spreads the seeded deadlines uniformly so reaping
	// is a steady trickle rather than one spike (0 = 500 ms: the
	// backlog mostly outlives a short measured window, the way real
	// minutes-long 2·MSL lingers dwarf any measurement interval).
	PrefillSpreadNs uint64
}

// ReorderConfig tunes the link-level reorder fault injector: the frame
// displacement a coalescing multi-queue receiver sees (Wu et al.).
type ReorderConfig struct {
	// OneIn displaces every Nth forward frame per link (0 = off).
	OneIn int
	// Distance is the displacement distance in frames (0 or 1 = the
	// adjacent swap; k > 1 delays the frame past k successors).
	Distance int
}

// LossConfig tunes the link-level loss fault injector: deterministic
// frame drops standing in for congestion or a noisy path. Exactly one
// model may be active — OneIn (uniform) or BurstRate (Gilbert-Elliott).
// Drop decisions are a pure function of the per-link frame counter and
// seed, so a given config drops the very same frames on every run and
// under either scheduler.
type LossConfig struct {
	// OneIn drops forward frames at a uniform rate of 1 in OneIn
	// (0 = off).
	OneIn int
	// BurstRate is the Gilbert-Elliott stationary loss fraction in
	// (0, 1) (0 = off); BurstLen is the mean bad-state burst length in
	// frames (0 = the link's DefaultBurstLossLen).
	BurstRate float64
	BurstLen  float64
	// Seed perturbs the drop sequence; link i draws from Seed+i, so
	// multi-link runs do not drop in lockstep.
	Seed uint64
}

// active reports whether any loss model is configured.
func (c LossConfig) active() bool { return c.OneIn > 0 || c.BurstRate > 0 }

// SteerConfig are the dynamic-steering knobs of a stream run.
type SteerConfig struct {
	// Enabled turns on the indirection rebalancer: every epoch it
	// observes per-CPU utilization and per-bucket load and rewrites the
	// NICs' RSS indirection to move buckets off hot CPUs.
	Enabled bool
	// EpochNs is the rebalance period (0 = 5 ms).
	EpochNs uint64
	// SpreadThreshold, MinMoveEpochs and MaxMovesPerEpoch override the
	// rebalancer's hysteresis/damping defaults (0 = defaults).
	SpreadThreshold  float64
	MinMoveEpochs    int
	MaxMovesPerEpoch int
	// ARFS enables accelerated-RFS: endpoints get pinned application
	// CPUs, the netstack observes them at socket-read time, and
	// exact-match NIC rules steer each flow to its application's CPU.
	ARFS bool
	// RuleTableSlots bounds each NIC's rule table (0 = 256).
	RuleTableSlots int
	// RuleIdleEpochs enables aRFS rule aging: a flow's exact-match rule
	// is removed after the flow goes unobserved for more than this many
	// steering epochs, instead of squatting a rule-table slot until LRU
	// pressure evicts it (0 = aging off).
	RuleIdleEpochs int
	// AppMigrateIntervalNs, when non-zero, re-pins one endpoint's
	// application to the next CPU every interval — the scheduler-moves-
	// the-app workload that forces aRFS to follow mid-stream.
	AppMigrateIntervalNs uint64
}

// steeringActive reports whether any dynamic-steering machinery runs.
func (c SteerConfig) steeringActive() bool { return c.Enabled || c.ARFS }

// DefaultStreamConfig mirrors the paper's five-NIC bulk setup.
func DefaultStreamConfig(system SystemKind, opt OptLevel) StreamConfig {
	return StreamConfig{
		System:     system,
		Opt:        opt,
		NICs:       5,
		DurationNs: 150_000_000, // 150 ms measured
		WarmupNs:   40_000_000,  // 40 ms warm-up
	}
}

// StreamResult reports one bulk-receive run.
type StreamResult struct {
	// DurationNs is the measured interval the rates were computed over.
	DurationNs uint64
	// ThroughputMbps is application goodput over the measured interval.
	ThroughputMbps float64
	// CPUUtil is receiver busy cycles / available cycles (one core
	// serializes the receive path; see ARCHITECTURE.md, "One core runs the
	// receive path").
	CPUUtil float64
	// CyclesPerPacket is charged cycles per network frame.
	CyclesPerPacket float64
	// Breakdown is the per-frame cycle breakdown by category.
	Breakdown cycles.Breakdown
	// AggFactor is network frames per host packet (1.0 when not
	// aggregating).
	AggFactor float64
	// Frames is the number of network frames processed in the interval.
	Frames uint64
	// LinkLimitedMbps is the aggregate wire goodput limit for reference.
	LinkLimitedMbps float64
	// Queues is the RSS queue (= softirq CPU) count of the run.
	Queues int
	// PerCPUUtil is each softirq CPU's busy fraction over the measured
	// interval; CPUUtil is their mean.
	PerCPUUtil []float64
	// FlowsTornDown counts churn teardowns during the whole run.
	FlowsTornDown uint64
	// ShardStats is the receiving flow table's per-shard counters at the
	// end of the run (index = shard; cumulative over warm-up and the
	// measured interval): registered flows, demux hits, misses, steals.
	ShardStats []netstack.ShardStats
	// TimeWaitEntered/TimeWaitReaped mirror TimeWait.Entered/Reaped
	// (kept for older consumers): everything that entered or left the
	// TIME_WAIT table — churn/storm teardowns AND any seeded
	// restart-storm backlog, so with PrefillTimeWait set they exceed the
	// torn-down flow count by the synthetic backlog.
	TimeWaitEntered, TimeWaitReaped uint64
	// TimeWait is the full TIME_WAIT table summary at the end of the run
	// (occupancy, peak, modeled footprint, SYN-time reuse activity).
	TimeWait netstack.TimeWaitStats
	// ChurnOpenFailures counts churn ticks that could not open a
	// replacement flow (port space and recycle pool exhausted); such
	// ticks leave the victim up instead of bleeding the population.
	ChurnOpenFailures uint64
	// Storm reports restart-storm activity (nil when no storm ran).
	Storm *StormReport
	// Steer reports dynamic-steering activity (nil when steering was
	// off).
	Steer *SteerReport
	// EngineAgg is each aggregation engine's cumulative counters at the
	// end of the run (index = CPU; nil on baseline paths): flush-reason
	// taxonomy plus resequencing-window activity.
	EngineAgg []aggregate.Stats
	// AggStats sums EngineAgg across engines.
	AggStats aggregate.Stats
	// OOOSegs is the number of segments the receiver endpoints queued
	// out of order during the measured interval — the TCP OOO-queue
	// pressure the resequencing window relieves. OOOPeak is the largest
	// out-of-order queue any endpoint reached over the whole run.
	OOOSegs uint64
	OOOPeak uint64
	// ReorderedFrames counts frames the links' reorder injector
	// displaced over the whole run (warm-up included).
	ReorderedFrames uint64
	// LostFrames counts frames the links' loss injector dropped over the
	// whole run (warm-up included).
	LostFrames uint64
	// Loss sums the sender endpoints' loss-recovery counters over the
	// measured interval (all zero on clean lossless runs).
	Loss LossReport
	// HostPackets is the number of host packets (post-aggregation demux
	// lookups) of the measured interval.
	HostPackets uint64
	// DemuxCycles is the cycles the flow table charged for structural
	// demux touches during the measured interval — the capacity-miss
	// excess that appears once the registered population outgrows the
	// cache, zero below it. This is the connscale sweep's per-layout
	// degradation signal.
	DemuxCycles uint64
	// Demux is the flow-table structure summary at the end of the run
	// (layout, footprint, per-shard load factors, probe-length
	// distribution).
	Demux netstack.TableStats
	// Mem is the stack's modeled memory budget at the end of the run
	// (endpoint slabs + TIME_WAIT entries + demux structure, with the
	// run's peak).
	Mem netstack.MemStats
	// Latency is the run's per-message latency telemetry (zero value with
	// Latency.Enabled false when telemetry was off): end-to-end and
	// per-stage residency histograms over the measured interval, plus the
	// RPC round-trip distribution when the RPC workload ran.
	Latency telemetry.LatencyReport
	// RPCRounds counts completed request bursts of the measured interval
	// (RPC workload only).
	RPCRounds uint64
}

// LossReport sums the sender endpoints' loss-recovery activity over the
// measured interval. With latency telemetry on, Latency.Recovery carries
// the full per-episode duration distribution; RecoveryNsSum here is its
// total and works without telemetry.
type LossReport struct {
	FastRetransmits  uint64 `json:"fast_retransmits"`
	RTOs             uint64 `json:"rtos"`
	SACKRetransmits  uint64 `json:"sack_retransmits"`
	LimitedTransmits uint64 `json:"limited_transmits"`
	SACKBlocksIn     uint64 `json:"sack_blocks_in"`
	RecoveryEvents   uint64 `json:"recovery_events"`
	RecoveryNsSum    uint64 `json:"recovery_ns_sum"`
}

// sub returns the counter-wise difference a−b (interval delta).
func (a LossReport) sub(b LossReport) LossReport {
	return LossReport{
		FastRetransmits:  a.FastRetransmits - b.FastRetransmits,
		RTOs:             a.RTOs - b.RTOs,
		SACKRetransmits:  a.SACKRetransmits - b.SACKRetransmits,
		LimitedTransmits: a.LimitedTransmits - b.LimitedTransmits,
		SACKBlocksIn:     a.SACKBlocksIn - b.SACKBlocksIn,
		RecoveryEvents:   a.RecoveryEvents - b.RecoveryEvents,
		RecoveryNsSum:    a.RecoveryNsSum - b.RecoveryNsSum,
	}
}

// senderLossStats sums loss-recovery counters over every sender
// endpoint in deterministic (machine, connection) order.
func senderLossStats(senders []*SenderMachine) LossReport {
	var r LossReport
	for _, m := range senders {
		for _, c := range m.conns {
			s := c.ep.Stats()
			r.FastRetransmits += s.FastRetransmits
			r.RTOs += s.RTOs
			r.SACKRetransmits += s.SACKRetransmits
			r.LimitedTransmits += s.LimitedTransmits
			r.SACKBlocksIn += s.SACKBlocksIn
			r.RecoveryEvents += s.RecoveryEvents
			r.RecoveryNsSum += s.RecoveryNsSum
		}
	}
	return r
}

// SteerReport summarizes a run's dynamic-steering activity.
type SteerReport struct {
	// Epochs counts rebalance evaluations, CalmEpochs those inside the
	// hysteresis band, Moves the indirection entries rewritten.
	Epochs, CalmEpochs, Moves uint64
	// RulesProgrammed/RuleEvictions/RuleHits sum the NICs' exact-match
	// rule activity; RuleOccupancy is the live rule count at the end.
	// RulesAged counts rules removed by idle-flow aging.
	RulesProgrammed, RuleEvictions, RuleHits uint64
	RuleOccupancy                            int
	RulesAged                                uint64
	// AppMigrations counts mid-stream application re-pinnings;
	// FlowOwnerOverrides the per-flow ownership overrides live at the
	// end.
	AppMigrations      uint64
	FlowOwnerOverrides int
	// Indirection is the final bucket→CPU table.
	Indirection []int
}

// BytesDelivered returns the application bytes of the measured interval.
func (r StreamResult) BytesDelivered() float64 {
	return r.ThroughputMbps * 1e6 / 8 * float64(r.DurationNs) / 1e9
}

// BytesPerAggregate returns the average application bytes one host
// packet carried — the §5.5 byte-level effectiveness measure (0 when the
// run delivered nothing).
func (r StreamResult) BytesPerAggregate() float64 {
	if r.AggFactor <= 0 || r.Frames == 0 {
		return 0
	}
	return r.BytesDelivered() / (float64(r.Frames) / r.AggFactor)
}

// CyclesPerByte returns charged receive-path cycles per delivered
// application byte (0 when the run delivered nothing).
func (r StreamResult) CyclesPerByte() float64 {
	b := r.BytesDelivered()
	if b <= 0 {
		return 0
	}
	return r.CyclesPerPacket * float64(r.Frames) / b
}

// DemuxCyclesPerPacket returns the structural demux charge per host
// packet of the measured interval (0 when nothing was delivered) — the
// number the connscale sweep compares across layouts.
func (r StreamResult) DemuxCyclesPerPacket() float64 {
	if r.HostPackets == 0 {
		return 0
	}
	return float64(r.DemuxCycles) / float64(r.HostPackets)
}

// UtilSpread returns max−min per-CPU utilization — the imbalance metric
// the rebalancer drives down.
func (r StreamResult) UtilSpread() float64 {
	if len(r.PerCPUUtil) == 0 {
		return 0
	}
	min, max := r.PerCPUUtil[0], r.PerCPUUtil[0]
	for _, u := range r.PerCPUUtil[1:] {
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	return max - min
}

// streamTopology holds the wired-up experiment.
type streamTopology struct {
	sim      *Sim
	machine  Machine
	senders  []*SenderMachine
	links    []*Link
	cpu      *cpuSet
	gen      *flowGen
	teardown *teardownTracker
	churn    *churner
	storm    *stormController
	steer    *steerController
	par      *parSched               // non-nil when the parallel scheduler is active
	col      *telemetry.Collector    // latency histograms (nil: off)
	spans    *telemetry.SpanRecorder // activity spans (nil: off)
	rpc      *rpcDriver              // incast workload (nil: bulk streams)
}

// runUntil advances the experiment to virtual time t: the serial event
// loop, or the lane executor when the parallel scheduler is active.
func (top *streamTopology) runUntil(t uint64) {
	if top.par != nil {
		top.par.run(t)
		return
	}
	top.sim.RunUntil(t)
}

// machineSnapshot returns the machine's full charged-cycle snapshot: the
// base meter plus any per-CPU lane shards (identical to MeterRef on
// machines that meter centrally).
func machineSnapshot(m Machine) cycles.Snapshot {
	if ms, ok := m.(interface{ MeterSnapshot() cycles.Snapshot }); ok {
		return ms.MeterSnapshot()
	}
	return m.MeterRef().Snapshot()
}

// RunStream executes one bulk-receive experiment.
func RunStream(cfg StreamConfig) (StreamResult, error) {
	top, err := buildStream(&cfg)
	if err != nil {
		return StreamResult{}, err
	}
	// Warm-up, snapshot, measure. Telemetry recorders reset at the
	// warm-up boundary so histograms and spans cover exactly the measured
	// interval (resetting only clears observation state — it cannot move
	// an event or a cycle).
	top.runUntil(cfg.WarmupNs)
	if top.col != nil {
		top.col.Reset()
	}
	if top.spans != nil {
		top.spans.Reset()
	}
	var startRounds uint64
	if top.rpc != nil {
		startRounds = top.rpc.rounds
	}
	startSnap := machineSnapshot(top.machine)
	startBytes := appBytes(top.machine)
	startFrames := top.machine.NetFramesIn()
	startHost := top.machine.HostPacketsIn()
	startBusy := top.cpu.perCPUBusy()
	startOOO := oooSegs(top.machine)
	startDemux := top.machine.FlowTable().DemuxCycles()
	startLoss := senderLossStats(top.senders)

	top.runUntil(cfg.WarmupNs + cfg.DurationNs)

	endSnap := machineSnapshot(top.machine)
	delta := endSnap.Sub(startSnap)
	bytes := appBytes(top.machine) - startBytes
	frames := top.machine.NetFramesIn() - startFrames
	host := top.machine.HostPacketsIn() - startHost
	endBusy := top.cpu.perCPUBusy()

	elapsedSec := float64(cfg.DurationNs) / 1e9
	cpuCycles := top.machine.ParamsRef().ClockHz * elapsedSec
	res := StreamResult{
		DurationNs:      cfg.DurationNs,
		Frames:          frames,
		LinkLimitedMbps: float64(cfg.NICs) * linkGoodputMbps(),
		ThroughputMbps:  float64(bytes) * 8 / elapsedSec / 1e6,
		Queues:          len(startBusy),
	}
	var busyTotal uint64
	for i := range startBusy {
		b := endBusy[i] - startBusy[i]
		busyTotal += b
		res.PerCPUUtil = append(res.PerCPUUtil, float64(b)/cpuCycles)
	}
	res.CPUUtil = float64(busyTotal) / (cpuCycles * float64(len(startBusy)))
	if frames > 0 {
		res.CyclesPerPacket = float64(delta.Total()) / float64(frames)
		res.Breakdown = delta.PerPacket(frames)
	}
	if host > 0 {
		res.AggFactor = float64(frames) / float64(host)
	}
	if top.churn != nil {
		res.FlowsTornDown = top.churn.tornDown
		res.ChurnOpenFailures = top.churn.openFailures
	}
	if top.storm != nil {
		report := top.storm.report
		res.Storm = &report
		res.FlowsTornDown += report.TornDown
	}
	table := top.machine.FlowTable()
	res.ShardStats = make([]netstack.ShardStats, table.Shards())
	for i := range res.ShardStats {
		res.ShardStats[i] = table.ShardStatsOf(i)
	}
	res.HostPackets = host
	res.DemuxCycles = table.DemuxCycles() - startDemux
	res.Demux = table.TableStats()
	res.Mem = top.machine.Netstack().MemStats()
	stackStats := top.machine.Netstack().Stats()
	res.TimeWaitEntered = stackStats.TimeWaitEntered
	res.TimeWaitReaped = stackStats.TimeWaitReaped
	res.TimeWait = top.machine.Netstack().TimeWaitStats()
	if top.steer != nil {
		res.Steer = top.steer.report()
	}
	res.OOOSegs = oooSegs(top.machine) - startOOO
	for _, ep := range top.machine.Endpoints() {
		if p := ep.Stats().OOOPeak; p > res.OOOPeak {
			res.OOOPeak = p
		}
	}
	for _, rp := range top.machine.ReceivePaths() {
		st := rp.Engine().Stats()
		res.EngineAgg = append(res.EngineAgg, st)
		res.AggStats = res.AggStats.Add(st)
	}
	for _, l := range top.links {
		res.ReorderedFrames += l.Stats().Reordered
		res.LostFrames += l.Stats().Lost
	}
	res.Loss = senderLossStats(top.senders).sub(startLoss)
	if top.col != nil {
		res.Latency = top.col.Report()
	}
	if top.rpc != nil {
		res.RPCRounds = top.rpc.rounds - startRounds
	}
	if top.spans != nil && cfg.Telemetry.SpanSink != nil {
		cfg.Telemetry.SpanSink(top.spans.Drain())
	}
	return res, nil
}

// oooSegs sums the receiver endpoints' out-of-order queue insertions.
func oooSegs(m Machine) uint64 {
	var total uint64
	for _, ep := range m.Endpoints() {
		total += ep.Stats().OOOSegs
	}
	return total
}

// linkGoodputMbps is the per-link TCP goodput ceiling for MSS-sized
// segments: 1448 payload bytes per 1538 wire bytes.
func linkGoodputMbps() float64 {
	const frameWire = 14 + 20 + 32 + 1448 + 24 // header+payload+overheads
	return 1000 * 1448 / float64(frameWire)
}

// appBytes sums delivered application bytes over the receiver endpoints.
func appBytes(m Machine) uint64 {
	var total uint64
	for _, ep := range m.Endpoints() {
		total += ep.Stats().BytesToApp
	}
	return total
}

// buildStream wires the full topology.
func buildStream(cfg *StreamConfig) (*streamTopology, error) {
	if cfg.NICs <= 0 {
		return nil, fmt.Errorf("sim: NICs %d must be positive", cfg.NICs)
	}
	if cfg.Connections == 0 {
		cfg.Connections = cfg.NICs
	}
	if cfg.Connections < 0 {
		return nil, fmt.Errorf("sim: Connections %d must be positive", cfg.Connections)
	}
	if cfg.DurationNs == 0 {
		cfg.DurationNs = 150_000_000
	}
	if cfg.FlowSkew < 0 {
		return nil, fmt.Errorf("sim: FlowSkew %f must be non-negative", cfg.FlowSkew)
	}
	if cfg.ReorderWindow < 0 {
		return nil, fmt.Errorf("sim: ReorderWindow %d must be non-negative", cfg.ReorderWindow)
	}
	if cfg.Reorder.OneIn < 0 || cfg.Reorder.Distance < 0 {
		return nil, fmt.Errorf("sim: negative reorder-injector config %+v", cfg.Reorder)
	}
	if cfg.Loss.OneIn < 0 || cfg.Loss.BurstRate < 0 || cfg.Loss.BurstRate >= 1 ||
		cfg.Loss.BurstLen < 0 {
		return nil, fmt.Errorf("sim: invalid loss-injector config %+v", cfg.Loss)
	}
	if cfg.Loss.OneIn > 0 && cfg.Loss.BurstRate > 0 {
		return nil, fmt.Errorf("sim: loss models are mutually exclusive (OneIn and BurstRate both set)")
	}
	if st := cfg.RestartStorm; st.Fraction < 0 || st.Fraction > 1 || st.PrefillTimeWait < 0 {
		return nil, fmt.Errorf("sim: invalid restart-storm config %+v", st)
	}
	if cfg.RegisteredFlows < 0 {
		return nil, fmt.Errorf("sim: RegisteredFlows %d must be non-negative", cfg.RegisteredFlows)
	}
	if cfg.RegisteredFlows > 0 && cfg.RegisteredFlows < cfg.Connections {
		return nil, fmt.Errorf("sim: RegisteredFlows %d below Connections %d",
			cfg.RegisteredFlows, cfg.Connections)
	}
	if cfg.MaxTimeWaitBuckets < 0 {
		return nil, fmt.Errorf("sim: MaxTimeWaitBuckets %d must be non-negative", cfg.MaxTimeWaitBuckets)
	}
	if cfg.RPC.Enabled {
		if cfg.RPC.RequestBytes < 0 || cfg.RPC.MessageBytes < 0 {
			return nil, fmt.Errorf("sim: negative RPC sizes %+v", cfg.RPC)
		}
		if cfg.ChurnIntervalNs != 0 || cfg.RestartStorm.AtNs != 0 ||
			cfg.Steering.steeringActive() || cfg.FlowSkew != 0 ||
			cfg.RegisteredFlows != 0 || cfg.MessageSize != 0 {
			return nil, fmt.Errorf("sim: the RPC workload is incompatible with churn, storm, steering, skew, connscale and MessageSize knobs")
		}
		// The workload exists to measure latency; the histograms are its
		// output.
		cfg.Telemetry.Latency = true
	}
	s := NewSim()

	// The parallel scheduler needs the lane Sims before any component is
	// built, so senders, links and the machine's per-CPU contexts read
	// virtual time from their own lane clocks from construction on.
	// Ineligible configurations (Xen, dynamic steering) silently use the
	// serial path, which is bit-identical by definition.
	var par *parSched
	var laneClocks []tcp.Clock
	if cfg.ParallelScheduler && cfg.System != SystemXen && !cfg.Steering.steeringActive() {
		cpus := cfg.Queues
		if cpus <= 0 {
			cpus = 1
		}
		par = newParSched(s, cfg.NICs, cpus)
		laneClocks = make([]tcp.Clock, cpus)
		for q := range laneClocks {
			laneClocks[q] = par.cpuLanes[q].Clock()
		}
	}

	machine, err := buildMachine(cfg, s, laneClocks)
	if err != nil {
		return nil, err
	}
	cpu := newCPUSet(s, machine)
	if par != nil {
		par.bind(machine.(*NativeMachine), cpu)
	}

	top := &streamTopology{sim: s, machine: machine, cpu: cpu, par: par}

	// Observation plumbing. The stamp clock and recorders only read the
	// lane clocks and meters — wiring them schedules nothing and charges
	// nothing, so a run with telemetry on stays bit-identical to the same
	// run with it off.
	if cfg.Telemetry.Latency {
		// One lane per softirq CPU, plus one per link for the sender
		// machines' recovery-latency shards: under the parallel scheduler
		// each sender runs on its link's lane, so it must own a shard no
		// receive CPU writes.
		top.col = telemetry.NewCollector(machine.CPUs() + cfg.NICs)
	}
	if cfg.Telemetry.Spans {
		top.spans = telemetry.NewSpanRecorder(machine.CPUs() + cfg.NICs)
		cpu.armSpans(top.spans)
	}
	if cfg.Telemetry.enabled() {
		machine.SetTelemetry(top.col, cpu.stampNowOn)
	}

	// One sender machine + link per NIC; per-queue interrupts go through
	// the machine's NAPI poll lists to the owning CPU's scheduler slot.
	machine.WireInterrupts(cpu.kick)
	for i := 0; i < cfg.NICs; i++ {
		ls := s
		if par != nil {
			ls = par.linkLanes[i]
		}
		sender := NewSender(ls, cfg.SenderQuantum)
		// One frame pool per run, shared with the receiver; under the
		// parallel scheduler each link lane gets its own (parsched.go).
		if par != nil {
			sender.SetPool(buf.NewPool())
		} else {
			sender.SetPool(machine.AllocRef().Pool())
		}
		sender.MaxPayload = cfg.MessageSize
		if cfg.SACK || cfg.NoTimestamps {
			sack, noTS := cfg.SACK, cfg.NoTimestamps
			sender.ConfigConn = func(c *tcp.Config) {
				c.SACK = sack
				if noTS {
					c.UseTimestamps = false
				}
			}
		}
		if top.col != nil {
			sender.RecoveryRec = top.col.Lane(machine.CPUs() + i)
		}
		link := NewLink(ls, sender, machine.NICs()[i])
		link.CorruptOneIn = cfg.CorruptOneIn
		link.ReorderOneIn = cfg.Reorder.OneIn
		link.ReorderDistance = cfg.Reorder.Distance
		if cfg.Loss.active() {
			link.LossOneIn = cfg.Loss.OneIn
			link.BurstLossRate = cfg.Loss.BurstRate
			link.BurstLossLen = cfg.Loss.BurstLen
			link.LossSeed = cfg.Loss.Seed + uint64(i)
		}
		if top.spans != nil {
			link.spanLane = top.spans.Lane(machine.CPUs() + i)
			link.spanTrack = linkTrackName(i)
		}
		if par != nil {
			par.attachLink(i, link)
		} else {
			machine.NICs()[i].OnTransmit = nicReverse(link, cpu)
		}
		top.senders = append(top.senders, sender)
		top.links = append(top.links, link)
	}

	if cfg.MaxTimeWaitBuckets > 0 || cfg.TimeWaitEvictOldest {
		machine.Netstack().ConfigureTimeWait(cfg.MaxTimeWaitBuckets, cfg.TimeWaitEvictOldest)
	}

	// Connections, round-robin across NICs. RPC runs replace the bulk
	// streams with the request/response incast driver; otherwise the
	// many-flow workload generator owns addressing, skewed rates and churn.
	if cfg.RPC.Enabled {
		rpc, err := newRPCDriver(top, cfg)
		if err != nil {
			return nil, err
		}
		top.rpc = rpc
	} else {
		gen := newFlowGen(top, cfg)
		top.gen = gen
		for c := 0; c < cfg.Connections; c++ {
			if err := gen.openFlow(); err != nil {
				return nil, err
			}
		}
		gen.applySkew()
		if cfg.RegisteredFlows > cfg.Connections {
			if err := gen.seedIdleFlows(cfg.RegisteredFlows - cfg.Connections); err != nil {
				return nil, err
			}
		}
	}
	if cfg.ChurnIntervalNs > 0 || cfg.RestartStorm.AtNs > 0 {
		top.teardown = newTeardownTracker(top)
		top.teardown.onReap = top.gen.recycle
	}
	if cfg.ChurnIntervalNs > 0 {
		top.churn = newChurner(top, top.gen, top.teardown, cfg.ChurnIntervalNs)
		s.After(cfg.ChurnIntervalNs, top.churn.tick)
	}
	if cfg.RestartStorm.AtNs > 0 {
		top.storm = newStormController(top, cfg)
		// The backlog seeds early (the previous process's residue exists
		// before the window under measurement); the storm itself fires at
		// its configured instant.
		prefillAt := uint64(1_000_000)
		if cfg.RestartStorm.AtNs < prefillAt {
			prefillAt = cfg.RestartStorm.AtNs
		}
		s.After(prefillAt, top.storm.prefill)
		s.After(cfg.RestartStorm.AtNs, top.storm.fire)
	}
	if cfg.Steering.steeringActive() {
		sc, err := newSteerController(top, cfg.Steering)
		if err != nil {
			return nil, err
		}
		top.steer = sc
	}

	// Periodic timer sweep (delayed ACKs, RTO backstop, TIME_WAIT reap)
	// and initial kick.
	const sweepNs = 5_000_000
	var sweep func()
	sweep = func() {
		now := s.Now()
		for _, ep := range machine.Endpoints() {
			if d := ep.NextTimeout(); d != 0 && now >= d {
				ep.OnTimeout(now)
			}
		}
		for _, snd := range top.senders {
			snd.FireTimers(now)
		}
		if top.teardown != nil {
			top.teardown.poll(now)
		}
		cpu.kickAll()
		s.After(sweepNs, sweep)
	}
	s.After(sweepNs, sweep)
	for _, l := range top.links {
		l.Kick()
	}
	return top, nil
}

// buildMachine constructs the system under test. laneClocks, when
// non-nil, arms the native machine's per-CPU execution contexts for the
// parallel scheduler (never set for Xen).
func buildMachine(cfg *StreamConfig, s *Sim, laneClocks []tcp.Clock) (Machine, error) {
	aggOpts := core.DefaultOptions()
	if cfg.AggLimit > 0 {
		aggOpts.Aggregation.Limit = cfg.AggLimit
	}
	aggOpts.Aggregation.ReorderWindow = cfg.ReorderWindow
	aggOpts.AckOffload = cfg.Opt == OptFull

	ruleSlots := 0
	if cfg.Steering.ARFS {
		ruleSlots = cfg.Steering.RuleTableSlots
		if ruleSlots == 0 {
			ruleSlots = 256
		}
	}
	if cfg.GuestVCPUs != 0 && cfg.System != SystemXen {
		return nil, fmt.Errorf("sim: GuestVCPUs is a Xen topology knob (system %v)", cfg.System)
	}

	switch cfg.System {
	case SystemNativeUP, SystemNativeSMP:
		params := cost.NativeUP()
		if cfg.System == SystemNativeSMP {
			params = cost.NativeSMP()
		}
		if cfg.Params != nil {
			params = *cfg.Params
		}
		mode := NativeBaseline
		if cfg.Opt != OptNone {
			mode = NativeOptimized
		}
		return NewNative(NativeConfig{
			Params:        params,
			NICCount:      cfg.NICs,
			RxQueues:      cfg.Queues,
			Mode:          mode,
			Aggregation:   aggOpts,
			Clock:         s.Clock(),
			FlowRuleSlots: ruleSlots,
			FlowLayout:    cfg.FlowLayout,
			LaneClocks:    laneClocks,
		})
	case SystemXen:
		params := cost.XenGuest()
		if cfg.Params != nil {
			params = *cfg.Params
		}
		mode := xenvirt.ModeBaseline
		if cfg.Opt != OptNone {
			mode = xenvirt.ModeOptimized
		}
		return xenvirt.New(xenvirt.Config{
			Params:        params,
			NICCount:      cfg.NICs,
			Queues:        cfg.Queues,
			GuestVCPUs:    cfg.GuestVCPUs,
			Mode:          mode,
			Aggregation:   aggOpts,
			Clock:         s.Clock(),
			FlowRuleSlots: ruleSlots,
			FlowLayout:    cfg.FlowLayout,
		})
	default:
		return nil, fmt.Errorf("sim: unknown system %d", int(cfg.System))
	}
}

// nicReverse returns the receiver NIC's transmit hook: frames go back over
// the link to the sender, departing only after the CPU time charged so far
// in the current round (the response to a request cannot leave before it
// has been computed — this is what puts receive-path processing cost into
// the request/response latency of Table 1).
func nicReverse(l *Link, cpu *cpuSet) func(nic.Frame) {
	return func(f nic.Frame) {
		l.DeliverReverse(f, cpu.inRoundLatencyNs())
	}
}

// cpuSet schedules the receiver's softirq CPUs on virtual time: each
// CPU's rounds occupy that CPU alone, so rounds on different CPUs overlap
// in virtual time — the parallelism RSS buys — while each CPU's own
// rounds serialize, keeping throughput CPU-bound when the cost model says
// so. With one CPU this is exactly the paper's single-softirq receiver.
//
// The discrete-event loop executes one round at a time, so the shared
// cycle meter's delta across a round is unambiguously that CPU's work
// even though wall-clock (virtual-time) intervals of different CPUs
// overlap.
type cpuSet struct {
	sim      *Sim
	m        Machine
	rxBudget int
	cpus     []*simCPU
	current  *simCPU // CPU executing a round right now (nil outside)

	// Parallel scheduler wiring (nil on the serial path): lanes[q] is CPU
	// q's event lane, laneMeters[q] its private cycle-meter shard, par the
	// executor (consulted for the barrier instant when a kick arrives from
	// a global event rather than from lane context).
	lanes      []*Sim
	laneMeters []*cycles.Meter
	par        *parSched
}

// simCPU is one softirq CPU's scheduler state.
type simCPU struct {
	id         int
	scheduled  bool
	busyUntil  uint64
	busyCycles uint64
	roundBase  uint64 // meter total at round start
	inRound    bool   // per-lane round marker (parallel scheduler)
	roundFn    func() // pre-bound round closure (no per-kick allocation)

	// Span telemetry (nil/"" when off): every non-empty softirq round is
	// recorded as an activity interval on the CPU's trace track.
	spanLane  *telemetry.SpanLane
	spanTrack string
}

func newCPUSet(s *Sim, m Machine) *cpuSet {
	cs := &cpuSet{sim: s, m: m, rxBudget: 64}
	for i := 0; i < m.CPUs(); i++ {
		c := &simCPU{id: i}
		c.roundFn = func() { cs.round(c) }
		cs.cpus = append(cs.cpus, c)
	}
	return cs
}

// kick schedules a softirq round on the given CPU when it next frees up.
// Idempotent per CPU.
func (cs *cpuSet) kick(cpu int) {
	c := cs.cpus[cpu]
	if c.scheduled {
		return
	}
	c.scheduled = true
	if cs.lanes != nil {
		// The scheduling instant is the lane's own clock when the kick
		// comes from lane context (ring apply, NAPI re-arm) and the merged
		// barrier instant when it comes from a global event (timer sweep):
		// exactly the serial schedule's "now" in both cases.
		ln := cs.lanes[cpu]
		now := ln.Now()
		if b := cs.par.barrierNow; b > now {
			now = b
		}
		at := now
		if c.busyUntil > at {
			at = c.busyUntil
		}
		ln.seq++
		ln.ScheduleKeyed(at, now, ln.seq, c.roundFn)
		return
	}
	at := cs.sim.Now()
	if c.busyUntil > at {
		at = c.busyUntil
	}
	cs.sim.Schedule(at, c.roundFn)
}

// kickAll schedules a round on every CPU (timer sweeps, initial kick).
func (cs *cpuSet) kickAll() {
	for i := range cs.cpus {
		cs.kick(i)
	}
}

// round executes one softirq round on c and accounts its CPU time. NAPI
// semantics: the CPU re-runs immediately only while some driver exhausts
// its poll budget; once every ring drains within budget, interrupts are
// re-enabled and the next round waits for the NIC (whose throttling then
// sets the batch size the aggregation engine sees).
func (cs *cpuSet) round(c *simCPU) {
	c.scheduled = false
	if cs.lanes != nil {
		// Lane round: the CPU's private meter shard measures the round and
		// its own lane clock anchors busyUntil. The arithmetic is the same
		// float64 expression over the same cycle counts as the serial
		// branch, so the computed times are bit-identical.
		meter := cs.laneMeters[c.id]
		c.roundBase = meter.Total()
		c.inRound = true
		_, more := cs.m.ProcessRound(c.id, cs.rxBudget)
		c.inRound = false
		used := meter.Total() - c.roundBase
		c.busyCycles += used
		busyNs := uint64(float64(used) / cs.m.ParamsRef().ClockHz * 1e9)
		start := cs.lanes[c.id].Now()
		c.busyUntil = start + busyNs
		if used > 0 && c.spanLane != nil {
			c.spanLane.Record(c.spanTrack, "round", start, busyNs)
		}
		if more {
			cs.kick(c.id)
		}
		return
	}
	meter := cs.m.MeterRef()
	c.roundBase = meter.Total()
	cs.current = c
	_, more := cs.m.ProcessRound(c.id, cs.rxBudget)
	cs.current = nil
	used := meter.Total() - c.roundBase
	c.busyCycles += used
	busyNs := uint64(float64(used) / cs.m.ParamsRef().ClockHz * 1e9)
	start := cs.sim.Now()
	c.busyUntil = start + busyNs
	if used > 0 && c.spanLane != nil {
		c.spanLane.Record(c.spanTrack, "round", start, busyNs)
	}

	if more {
		cs.kick(c.id)
	}
}

// runOn executes fn outside a softirq round, attributing the cycles it
// charges to CPU id — how migration work (pending-aggregate flushes, the
// IPI-like handoff of a steering rewrite) is billed to the CPU that loses
// the bucket, pushing its next round out in virtual time like any other
// busy work.
func (cs *cpuSet) runOn(id int, fn func()) {
	c := cs.cpus[id]
	meter := cs.m.MeterRef()
	prev := cs.current
	prevBase := c.roundBase
	c.roundBase = meter.Total()
	cs.current = c
	fn()
	cs.current = prev
	used := meter.Total() - c.roundBase
	c.roundBase = prevBase
	c.busyCycles += used
	busyNs := uint64(float64(used) / cs.m.ParamsRef().ClockHz * 1e9)
	now := cs.sim.Now()
	if c.busyUntil < now {
		c.busyUntil = now
	}
	c.busyUntil += busyNs
}

// perCPUBusy returns each CPU's cumulative busy cycles.
func (cs *cpuSet) perCPUBusy() []uint64 {
	busy := make([]uint64, len(cs.cpus))
	for i, c := range cs.cpus {
		busy[i] = c.busyCycles
	}
	return busy
}

// inRoundLatencyNs reports how much CPU time the current round has charged
// so far: packets transmitted mid-round leave the machine that much later
// in wall-clock terms. Zero outside a round.
func (cs *cpuSet) inRoundLatencyNs() uint64 {
	if cs.current == nil {
		return 0
	}
	used := cs.m.MeterRef().Total() - cs.current.roundBase
	return uint64(float64(used) / cs.m.ParamsRef().ClockHz * 1e9)
}

// inRoundLatencyOn is inRoundLatencyNs for one CPU lane: the same charge
// measurement against the lane's private meter shard. Zero outside a round
// on that lane (a sweep-time delayed ACK leaves immediately, exactly as it
// does serially).
func (cs *cpuSet) inRoundLatencyOn(cpu int) uint64 {
	c := cs.cpus[cpu]
	if !c.inRound {
		return 0
	}
	used := cs.laneMeters[cpu].Total() - c.roundBase
	return uint64(float64(used) / cs.m.ParamsRef().ClockHz * 1e9)
}
