package sim

import (
	"fmt"

	"repro/internal/aggregate"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/frontend"
	"repro/internal/ipv4"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/tcp"
	"repro/internal/telemetry"
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
	// MessageSize caps sender segments below the MSS (0 = full MSS).
	// The paper notes the optimizations do not help small-message
	// workloads (§5.5, §1) — sub-MSS segments still aggregate poorly
	// in byte terms and ACK policy differs.
	MessageSize int
	// Queues is the number of RSS receive queues per NIC, each pinned
	// to its own softirq CPU (0 or 1 = the paper's single-queue,
	// single-CPU receive path). On Xen this is also the number of
	// paravirtual I/O channels and guest vCPUs: queue q's bridged
	// packets cross channel q to vCPU q.
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
	// ReorderWindow sets the aggregation engines' per-flow resequencing
	// window in frames (0 = disabled, the strict flush-on-OOO engine —
	// bit-identical to the previous pipeline). Only meaningful on
	// optimized paths.
	ReorderWindow int
	// Faults configures every link's fault stage — CorruptOneIn, Reorder
	// and Loss (zero value: clean wires). Link i's loss injector draws
	// from Loss.Seed+i.
	Faults
	// SACK enables selective acknowledgments (RFC 2018) on every
	// connection: receiver block generation from the OOO queue, sender
	// scoreboard recovery (selective retransmission, limited transmit,
	// pipe accounting). Off, wire format and recovery behaviour are
	// bit-identical to the seed.
	SACK bool
	// TimeWaitReuse is read by nothing: the stack never recycles a
	// lingering TIME_WAIT entry, so a run is the same with it on or off.
	// It stays only because bench/rxperf's faults-churn workload sets it.
	TimeWaitReuse bool
	// RegisteredFlows, when above Connections, grows the registered
	// endpoint population to this total by seeding idle flows: registered
	// connections that receive no traffic during the run but occupy demux
	// table slots and endpoint slab bytes, so the active subset's lookups
	// walk a realistically cold, realistically large table (the connscale
	// axis, 10k → 1M).
	RegisteredFlows int
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

// Defaults a run fills in for values its config leaves zero (Resolved).
const (
	// defaultDurationNs is the measured interval: 150 ms.
	defaultDurationNs = 150_000_000
	// defaultRPCMessageBytes is the incast's response size: one full MSS.
	defaultRPCMessageBytes = 1448
)

// DefaultStreamConfig mirrors the paper's five-NIC bulk setup.
func DefaultStreamConfig(system SystemKind, opt OptLevel) StreamConfig {
	return StreamConfig{
		System:     system,
		Opt:        opt,
		NICs:       5,
		DurationNs: defaultDurationNs,
		WarmupNs:   40_000_000, // 40 ms warm-up
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
	// TimeWait is the full TIME_WAIT table summary at the end of the run
	// (entries in and reaped, occupancy, peak, modeled footprint).
	TimeWait netstack.TimeWaitStats
	// ChurnOpenFailures counts churn ticks that could not open a
	// replacement flow (port space and recycle pool exhausted); such
	// ticks leave the victim up instead of bleeding the population.
	ChurnOpenFailures uint64
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
	// cache, zero below it. This is the connscale sweep's degradation
	// signal.
	DemuxCycles uint64
	// Demux is the flow-table structure summary at the end of the run
	// (footprint, per-shard load factors, probe-length distribution).
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

// UtilSpread returns max−min per-CPU utilization, the load imbalance
// across CPUs.
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
	cfg      *StreamConfig
	sim      *Sim
	machine  *frontend.FrontEnd
	senders  []*SenderMachine
	links    []*Link
	cpu      *cpuSet
	gen      *flowGen
	teardown *teardownTracker
	churn    *churner
	col      *telemetry.Collector    // latency histograms (nil: off)
	spans    *telemetry.SpanRecorder // activity spans (nil: off)
	rpc      *rpcDriver              // incast workload (nil: bulk streams)
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
	top.sim.RunUntil(cfg.WarmupNs)
	top.col.Reset()
	top.spans.Reset()
	var startRounds uint64
	if top.rpc != nil {
		startRounds = top.rpc.rounds
	}
	startSnap := top.machine.Meter.Snapshot()
	startEP := top.machine.EndpointStats()
	startFrames := top.machine.NetFramesIn()
	startHost := top.machine.HostPacketsIn()
	startBusy := top.cpu.perCPUBusy()
	startDemux := top.machine.FlowTable().DemuxCycles()
	startLoss := senderLossStats(top.senders)

	top.sim.RunUntil(cfg.WarmupNs + cfg.DurationNs)

	endSnap := top.machine.Meter.Snapshot()
	delta := endSnap.Sub(startSnap)
	endEP := top.machine.EndpointStats()
	bytes := endEP.BytesToApp - startEP.BytesToApp
	frames := top.machine.NetFramesIn() - startFrames
	host := top.machine.HostPacketsIn() - startHost
	endBusy := top.cpu.perCPUBusy()

	elapsedSec := float64(cfg.DurationNs) / 1e9
	cpuCycles := top.machine.Params.ClockHz * elapsedSec
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
	table := top.machine.FlowTable()
	res.ShardStats = make([]netstack.ShardStats, table.Shards())
	for i := range res.ShardStats {
		res.ShardStats[i] = table.ShardStatsOf(i)
	}
	res.HostPackets = host
	res.DemuxCycles = table.DemuxCycles() - startDemux
	res.Demux = table.TableStats()
	res.Mem = top.machine.Stack.MemStats()
	res.TimeWait = top.machine.Stack.TimeWaitStats()
	res.OOOSegs = endEP.OOOSegs - startEP.OOOSegs
	res.OOOPeak = endEP.OOOPeak
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
	res.Latency = top.col.Report()
	if top.rpc != nil {
		res.RPCRounds = top.rpc.rounds - startRounds
	}
	if cfg.Telemetry.SpanSink != nil {
		cfg.Telemetry.SpanSink(top.spans.Drain())
	}
	return res, nil
}

// linkGoodputMbps is the per-link TCP goodput ceiling for MSS-sized
// segments: 1448 payload bytes per 1538 wire bytes.
func linkGoodputMbps() float64 {
	const frameWire = 14 + 20 + 32 + 1448 + 24 // header+payload+overheads
	return lineRateBps / 1e6 * 1448 / float64(frameWire)
}

// buildStream wires the full stream experiment: the topology, the bulk
// flows with churn or the RPC driver, and the 5 ms timer sweep.
func buildStream(cfg *StreamConfig) (*streamTopology, error) {
	top, err := newTopology(cfg)
	if err != nil {
		return nil, err
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
	if cfg.ChurnIntervalNs > 0 {
		top.teardown = newTeardownTracker(top)
		top.churn = newChurner(top, top.gen, top.teardown, cfg.ChurnIntervalNs)
		top.sim.After(cfg.ChurnIntervalNs, top.churn.tickFn)
	}
	top.start(streamSweepNs)
	return top, nil
}

// streamSweepNs is the period of a stream run's timer sweep (start).
const streamSweepNs = 5_000_000

// registeredEndpoints bounds the distinct endpoints a run of cfg holds
// registered in its flow table at once: one per connection, the one
// placeholder the idle population shares, and under churn every
// torn-down flow still registered. A churn victim drains its FIN for at
// most churnForceTeardownNs and then lingers churnTimeWaitNs, each phase
// ending up to one timer sweep late, so it is registered for less than
// churnRegisteredNs after the tick that tore it down. However short the
// interval, a run holds at most its initial flows plus churnPortPairs
// churn flows registered: a churn flow keeps its pair from the one churn
// port pool until it is unregistered.
func registeredEndpoints(cfg *StreamConfig) int {
	const churnRegisteredNs = churnForceTeardownNs + churnTimeWaitNs + 2*streamSweepNs
	n := cfg.Connections
	if cfg.RegisteredFlows > cfg.Connections {
		n++
	}
	if cfg.ChurnIntervalNs > 0 {
		n += min(int(churnRegisteredNs/cfg.ChurnIntervalNs)+1, churnPortPairs)
	}
	return n
}

// Resolved returns cfg with its defaults filled in, as a run uses it:
// Connections defaults to one per NIC and DurationNs to 150 ms. The RPC
// workload, when on, gets its response size and Telemetry.Latency (the
// histograms are its output). It validates nothing.
func (cfg StreamConfig) Resolved() StreamConfig {
	if cfg.Connections == 0 {
		cfg.Connections = cfg.NICs
	}
	if cfg.DurationNs == 0 {
		cfg.DurationNs = defaultDurationNs
	}
	if rpc := &cfg.RPC; rpc.Enabled {
		cfg.Telemetry.Latency = true
		if rpc.MessageBytes == 0 {
			rpc.MessageBytes = defaultRPCMessageBytes
		}
	}
	return cfg
}

// newTopology resolves and validates cfg and wires the machine, its CPUs,
// telemetry, and one sender machine and link per NIC. It schedules nothing
// and opens no connection: the caller attaches a workload, then calls
// start.
func newTopology(cfg *StreamConfig) (*streamTopology, error) {
	*cfg = cfg.Resolved()
	if cfg.NICs <= 0 {
		return nil, fmt.Errorf("sim: NICs %d must be positive", cfg.NICs)
	}
	if cfg.Connections < 0 {
		return nil, fmt.Errorf("sim: Connections %d must be positive", cfg.Connections)
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
	if cfg.Loss.OneIn < 0 || cfg.Loss.BurstRate < 0 || cfg.Loss.BurstRate >= 1 {
		return nil, fmt.Errorf("sim: invalid loss-injector config %+v", cfg.Loss)
	}
	if cfg.Loss.OneIn > 0 && cfg.Loss.BurstRate > 0 {
		return nil, fmt.Errorf("sim: loss models are mutually exclusive (OneIn and BurstRate both set)")
	}
	if cfg.RegisteredFlows < 0 {
		return nil, fmt.Errorf("sim: RegisteredFlows %d must be non-negative", cfg.RegisteredFlows)
	}
	if cfg.RegisteredFlows > 0 && cfg.RegisteredFlows < cfg.Connections {
		return nil, fmt.Errorf("sim: RegisteredFlows %d below Connections %d",
			cfg.RegisteredFlows, cfg.Connections)
	}
	if cfg.RPC.Enabled {
		if cfg.RPC.MessageBytes < 0 {
			return nil, fmt.Errorf("sim: RPC MessageBytes %d must be non-negative", cfg.RPC.MessageBytes)
		}
		if cfg.ChurnIntervalNs != 0 || cfg.FlowSkew != 0 || cfg.RegisteredFlows != 0 || cfg.MessageSize != 0 {
			return nil, fmt.Errorf("sim: the RPC workload is incompatible with churn, skew, connscale and MessageSize knobs")
		}
	}
	if n := registeredEndpoints(cfg); n > netstack.MaxEndpoints {
		return nil, fmt.Errorf("sim: the run could hold %d endpoints registered at once, above the flow table's %d",
			n, netstack.MaxEndpoints)
	}
	machine, err := buildMachine(cfg)
	if err != nil {
		return nil, err
	}
	s := NewSim()
	cpu := newCPUSet(s, machine)

	top := &streamTopology{cfg: cfg, sim: s, machine: machine, cpu: cpu}

	// Observation plumbing. The stamp clock and recorders only read the
	// clock and meters — wiring them schedules nothing and charges
	// nothing, so a run with telemetry on stays bit-identical to the same
	// run with it off.
	if cfg.Telemetry.Latency {
		top.col = &telemetry.Collector{}
	}
	if cfg.Telemetry.SpanSink != nil {
		top.spans = &telemetry.SpanRecorder{}
		cpu.armSpans(top.spans)
	}
	if cfg.Telemetry.enabled() {
		machine.SetTelemetry(top.col, cpu.stampNow)
	}

	// One sender machine + link per NIC; per-queue interrupts go through
	// the machine's NAPI poll lists to the owning CPU's scheduler slot.
	machine.WireInterrupts(cpu.kick)
	for i := 0; i < cfg.NICs; i++ {
		sender := NewSender(s, DefaultSenderQuantum)
		// One frame pool per run, shared with the receiver.
		sender.SetPool(machine.Alloc.Pool())
		sender.MaxPayload = cfg.MessageSize
		sender.SACK = cfg.SACK
		sender.RecoveryRec = top.col
		link := NewLink(s, sender, machine.NICs()[i])
		link.Faults = cfg.Faults
		link.Loss.Seed += uint64(i)
		if top.spans != nil {
			link.spans = top.spans
			link.spanTrack = linkTrackName(i)
		}
		// The NIC transmits back over the link, each frame departing only
		// after the CPU time charged so far in the current round: a
		// response cannot leave before it has been computed, which puts
		// receive-path cost into the request/response latency of Table 1.
		machine.NICs()[i].OnTransmit = func(f nic.Frame) {
			link.DeliverReverse(f, cpu.inRoundLatencyNs())
		}
		top.senders = append(top.senders, sender)
		top.links = append(top.links, link)
	}
	return top, nil
}

// start arms the periodic timer sweep (delayed ACKs, RTO backstop,
// TIME_WAIT reap) every sweepNs and kicks every link.
func (top *streamTopology) start(sweepNs uint64) {
	s := top.sim
	var sweep func()
	sweep = func() {
		now := s.Now()
		for _, ep := range top.machine.Endpoints() {
			if ep == nil {
				continue // retired
			}
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
		top.cpu.kickAll()
		s.After(sweepNs, sweep)
	}
	s.After(sweepNs, sweep)
	for _, l := range top.links {
		l.Kick()
	}
}

// openReceiver builds the receiver endpoint of the connection
// senderIP:sPort → rcvIP:rPort with the run's options and registers it
// with the machine, returning it with its endpoint-list slot.
func (top *streamTopology) openReceiver(senderIP, rcvIP ipv4.Addr, sPort, rPort uint16) (*tcp.Endpoint, int, error) {
	rcfg := tcp.DefaultConfig()
	rcfg.LocalIP, rcfg.RemoteIP = rcvIP, senderIP
	rcfg.LocalPort, rcfg.RemotePort = rPort, sPort
	rcfg.AckOffload = top.cfg.Opt == OptFull
	rcfg.SACK = top.cfg.SACK
	return top.machine.OpenEndpoint(rcfg, top.sim.Clock(), senderIP, rcvIP, sPort, rPort)
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
	fe       *frontend.FrontEnd
	rxBudget int
	cpus     []*simCPU
	current  *simCPU // CPU executing a round right now (nil outside)
}

// simCPU is one softirq CPU's scheduler state.
type simCPU struct {
	id         int
	scheduled  bool
	busyUntil  uint64
	busyCycles uint64
	roundBase  uint64 // meter total at round start
	roundFn    func() // pre-bound round closure (no per-kick allocation)

	// Span telemetry (nil/"" when off): every non-empty softirq round is
	// recorded as an activity interval on the CPU's trace track.
	spans     *telemetry.SpanRecorder
	spanTrack string
}

func newCPUSet(s *Sim, fe *frontend.FrontEnd) *cpuSet {
	cs := &cpuSet{sim: s, fe: fe, rxBudget: 64}
	for i := 0; i < fe.CPUs(); i++ {
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
	meter := &cs.fe.Meter
	c.roundBase = meter.Total()
	cs.current = c
	_, more := cs.fe.Poll(c.id, cs.rxBudget)
	cs.current = nil
	used := meter.Total() - c.roundBase
	c.busyCycles += used
	busyNs := uint64(float64(used) / cs.fe.Params.ClockHz * 1e9)
	start := cs.sim.Now()
	c.busyUntil = start + busyNs
	if used > 0 {
		c.spans.Record(c.spanTrack, "round", start, busyNs)
	}

	if more {
		cs.kick(c.id)
	}
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
	used := cs.fe.Meter.Total() - cs.current.roundBase
	return uint64(float64(used) / cs.fe.Params.ClockHz * 1e9)
}
