package sim

import (
	"fmt"

	"repro/internal/aggregate"
	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/driver"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/rss"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

// Machine is the interface the simulation drives: implemented by the
// native receiver below and by xenvirt.Machine.
type Machine interface {
	NICs() []*nic.NIC
	// CPUs returns the number of softirq CPUs (= RSS queues per NIC).
	CPUs() int
	// ProcessRound runs one softirq round on the given CPU with the
	// given per-queue poll budget. It returns the number of network
	// frames consumed and whether any driver on that CPU exhausted its
	// budget (NAPI keeps such drivers on the poll list: the CPU must run
	// another round without waiting for an interrupt).
	ProcessRound(cpu, budget int) (frames int, more bool)
	// WireInterrupts routes per-queue NIC interrupts through the
	// machine's NAPI poll lists to the CPU scheduler's kick function
	// (queue q of any NIC kicks CPU q).
	WireInterrupts(kick func(cpu int))
	MeterRef() *cycles.Meter
	AllocRef() *buf.Allocator
	ParamsRef() *cost.Params
	// ReceivePaths returns every CPU's optimized aggregation path (nil
	// slice on baseline paths) — engine stats, flush-reason taxonomy and
	// resequencing-window counters.
	ReceivePaths() []*core.ReceivePath
	// FlowTable exposes the receiving stack's sharded demux table
	// (per-shard stats: flows, demux hits, steals).
	FlowTable() *netstack.FlowTable
	// Netstack exposes the receiving stack itself (steering hooks,
	// TIME_WAIT reaping).
	Netstack() *netstack.Stack
	// SteerMap returns the live bucket→CPU steering map that defines
	// shard ownership (shared with the NIC indirection natively; the
	// netback channel map on Xen). Never nil.
	SteerMap() *rss.Map
	// SteerTargets returns the number of CPUs steering may target —
	// valid bucket owners and application CPUs. Natively every softirq
	// CPU qualifies; on Xen only the guest vCPUs do (an asymmetric
	// machine with fewer vCPUs than dom0 queues has cores that run dom0
	// work only and can own no channel).
	SteerTargets() int
	// SteerBucket repoints bucket b to cpu: the machine drains the old
	// owner's pending aggregation state for the bucket's flows (so no
	// aggregate spans the migration boundary), then rewrites the
	// indirection everywhere it is consulted.
	SteerBucket(b, cpu int)
	// SteerFlow programs an exact-match aRFS rule steering flow k
	// (hashing to hash) onto cpu, overriding the indirection; it drains
	// pending aggregation state for the flow first. When the bounded
	// rule table evicts a victim to make room, the victim's key is
	// returned so the policy can forget it.
	SteerFlow(k netstack.FlowKey, hash uint32, cpu int) (evicted *netstack.FlowKey, err error)
	// UnsteerFlow removes flow k's exact-match steering rule (aRFS rule
	// aging): the flow reverts to its bucket's indirection, with the
	// same handoff as any re-steer — pending aggregation state drained,
	// ownership override cleared. No-op when no rule is programmed.
	UnsteerFlow(k netstack.FlowKey)
	RegisterEndpoint(ep *tcp.Endpoint, remoteIP, localIP [4]byte, remotePort, localPort uint16) error
	UnregisterEndpoint(remoteIP, localIP [4]byte, remotePort, localPort uint16)
	Endpoints() []*tcp.Endpoint
	HostPacketsIn() uint64
	NetFramesIn() uint64
	// SetTelemetry arms latency observation: stampClock(cpu) supplies the
	// simulated-ns stamp clock for work executing on that CPU, wired into
	// every driver, aggregation engine and the stack so frames carry their
	// stage-boundary times; when col is non-nil, endpoints registered from
	// then on record per-stage residencies into the lane of the CPU that
	// owns their flow. Observation only: stamping reads the clock, it
	// never charges a cycle or schedules an event.
	SetTelemetry(col *telemetry.Collector, stampClock func(cpu int) uint64)
}

// NativeMode selects the native receiver's path configuration.
type NativeMode int

const (
	// NativeBaseline is the stock stack.
	NativeBaseline NativeMode = iota
	// NativeOptimized enables Receive Aggregation (ACK offload is the
	// endpoint's AckOffload flag).
	NativeOptimized
)

// NativeConfig assembles a native Linux receiver machine.
type NativeConfig struct {
	// Params is the machine cost profile (NativeUP, NativeSMP, ...).
	Params cost.Params
	// NICCount is the number of Gigabit NICs (the paper uses five).
	NICCount int
	// RxQueues is the number of RSS receive queues per NIC; each queue
	// index is pinned to its own softirq CPU, so this is also the CPU
	// count of the receive path. 0 or 1 reproduces the paper's
	// single-queue, single-softirq machine exactly.
	RxQueues int
	// Mode selects baseline or optimized.
	Mode NativeMode
	// Aggregation configures the optimized path; zero value uses the
	// paper's defaults (limit 20).
	Aggregation core.Options
	// Clock supplies virtual time.
	Clock tcp.Clock
	// FlowRuleSlots sizes each NIC's exact-match steering-rule table
	// (0 = no aRFS filters, the paper's hardware).
	FlowRuleSlots int
	// FlowLayout selects the flow-table shard layout (default: the
	// cache-conscious open-addressed layout; LayoutSeedMap is the priced
	// Go-map baseline).
	FlowLayout netstack.FlowLayout
	// LaneClocks, when non-nil (parallel scheduler), builds the machine
	// with one private execution context per softirq CPU — meter, SKB
	// allocator, transmit drivers, stack lane — with context q reading
	// virtual time from LaneClocks[q] (the CPU's event-lane clock). Length
	// must equal RxQueues. Totals (MeterSnapshot, Stats sums) are exact
	// uint64 sums of the shards, so results are bit-identical to a serial
	// machine doing the same work.
	LaneClocks []tcp.Clock
}

// NativeMachine is a native Linux receiver host.
//
// Multi-queue layout: NIC n's receive queue q is serviced by the driver
// drvs[n][q], polled from softirq CPU q. In optimized mode CPU q owns the
// receive path rps[q] — softirq context, aggregation queue and
// aggregation engine — so every per-flow structure on the hot path is
// CPU-local (see ARCHITECTURE.md).
type NativeMachine struct {
	Meter  cycles.Meter
	Params cost.Params
	Alloc  *buf.Allocator
	Stack  *netstack.Stack

	cfg      NativeConfig
	cpus     int
	nics     []*nic.NIC
	drvs     [][]*driver.Driver  // [nic][queue]
	rps      []*core.ReceivePath // [cpu]; nil slice in baseline mode
	eps      []*tcp.Endpoint
	framesIn uint64
	polling  [][]bool // NAPI poll lists: [nic][queue] with signaled irq
	wired    bool     // interrupts routed via WireInterrupts

	// Per-CPU execution contexts (LaneClocks set). Each softirq CPU owns
	// a meter and allocator shard plus its own transmit drivers, so a CPU
	// lane's entire receive round — driver poll, aggregation, stack,
	// endpoint, ACK transmit — mutates nothing another lane touches.
	laneMeters []*cycles.Meter
	laneAllocs []*buf.Allocator
	laneFrames []uint64
	laneTx     [][]*driver.Driver // [cpu][nic]

	// steerMap is the machine's bucket→CPU steering truth, shared by
	// every NIC's indirection lookup and the flow table's ownership
	// accounting; its round-robin initial fill is the static RSS spread.
	steerMap *rss.Map

	// Telemetry wiring (nil when off): the latency collector endpoints
	// record into, and the per-CPU stamp clock behind every stage stamp.
	telCol     *telemetry.Collector
	stampClock func(cpu int) uint64
}

// NewNative assembles a native machine.
func NewNative(cfg NativeConfig) (*NativeMachine, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.NICCount <= 0 {
		return nil, fmt.Errorf("sim: NICCount %d must be positive", cfg.NICCount)
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("sim: Clock must be set")
	}
	if cfg.RxQueues == 0 {
		cfg.RxQueues = 1
	}
	if cfg.RxQueues < 0 {
		return nil, fmt.Errorf("sim: RxQueues %d must be positive", cfg.RxQueues)
	}
	if cfg.LaneClocks != nil && len(cfg.LaneClocks) != cfg.RxQueues {
		return nil, fmt.Errorf("sim: %d lane clocks for %d queues", len(cfg.LaneClocks), cfg.RxQueues)
	}
	m := &NativeMachine{cfg: cfg, cpus: cfg.RxQueues, Params: cfg.Params}
	m.Alloc = buf.NewAllocator(&m.Meter, &m.Params)
	m.Alloc.SetPool(buf.NewPool())
	m.Stack = netstack.NewLayout(&m.Meter, &m.Params, m.Alloc, cfg.FlowLayout)
	m.Stack.Tx = nativeRouter{m}
	m.Stack.SetQueues(m.cpus)
	sm, err := rss.NewMap(m.cpus)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	m.steerMap = sm
	m.Stack.FlowTable().SetOwnerMap(sm)

	// laneMeter/laneAlloc resolve the charging context for work attributed
	// to one CPU: the lane shard when per-CPU contexts are armed, the
	// machine-wide context otherwise.
	if cfg.LaneClocks != nil {
		m.laneFrames = make([]uint64, m.cpus)
		for cpu := 0; cpu < m.cpus; cpu++ {
			lm := &cycles.Meter{}
			m.laneMeters = append(m.laneMeters, lm)
			la := buf.NewAllocator(lm, &m.Params)
			la.SetPool(buf.NewPool())
			m.laneAllocs = append(m.laneAllocs, la)
		}
		m.Stack.SetLanes(m.laneMeters, m.laneAllocs)
	}

	if cfg.Mode == NativeOptimized {
		opts := cfg.Aggregation
		if opts.QueueCapacity == 0 {
			agg := opts.Aggregation
			opts = core.DefaultOptions()
			if agg.Limit > 0 {
				opts.Aggregation.Limit = agg.Limit
			}
			opts.Aggregation.ReorderWindow = agg.ReorderWindow
			opts.Aggregation.ReorderWindowBytes = agg.ReorderWindowBytes
		}
		for cpu := 0; cpu < m.cpus; cpu++ {
			rp, err := core.NewOnCPU(cpu, opts, m.laneMeter(cpu), &m.Params, m.laneAlloc(cpu), m.Stack.InputOn(cpu))
			if err != nil {
				return nil, fmt.Errorf("sim: %w", err)
			}
			m.rps = append(m.rps, rp)
		}
	}

	for i := 0; i < cfg.NICCount; i++ {
		ncfg := nic.DefaultConfig(fmt.Sprintf("eth%d", i))
		ncfg.RxQueues = m.cpus
		ncfg.Indir = m.steerMap
		ncfg.FlowRuleSlots = cfg.FlowRuleSlots
		ncfg.IntThrottleFrames = 16 // e1000-style interrupt throttling; the
		// link flushes the line when the wire goes idle, so latency
		// workloads are not delayed (§5.4)
		n, err := nic.New(ncfg)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		qdrvs := make([]*driver.Driver, m.cpus)
		for q := 0; q < m.cpus; q++ {
			var d *driver.Driver
			if cfg.Mode == NativeOptimized {
				d = driver.NewQueue(n, q, driver.ModeRaw, m.laneMeter(q), &m.Params, m.laneAlloc(q))
				d.DeliverRaw = m.rps[q].EnqueueRaw
			} else {
				d = driver.NewQueue(n, q, driver.ModeBaseline, m.laneMeter(q), &m.Params, m.laneAlloc(q))
				d.DeliverSKB = m.Stack.InputOn(q)
			}
			qdrvs[q] = d
		}
		m.nics = append(m.nics, n)
		m.drvs = append(m.drvs, qdrvs)
	}
	m.polling = make([][]bool, len(m.nics))
	for i := range m.polling {
		m.polling[i] = make([]bool, m.cpus)
	}

	// Per-CPU transmit drivers: endpoint ACKs generated on CPU q leave
	// through q's own driver for the flow's NIC, so transmit charges and
	// driver state stay on the generating lane (serial machines transmit
	// through the receive drivers' queue-0 column instead).
	if cfg.LaneClocks != nil {
		m.laneTx = make([][]*driver.Driver, m.cpus)
		txOn := make([]netstack.Transmitter, m.cpus)
		for cpu := 0; cpu < m.cpus; cpu++ {
			m.laneTx[cpu] = make([]*driver.Driver, len(m.nics))
			for i, n := range m.nics {
				m.laneTx[cpu][i] = driver.NewQueue(n, cpu, driver.ModeBaseline, m.laneMeter(cpu), &m.Params, m.laneAlloc(cpu))
			}
			txOn[cpu] = laneRouter{m: m, cpu: cpu}
		}
		m.Stack.TxOn = txOn
	}
	return m, nil
}

// SetTelemetry wires the machine's stage-stamp clocks and latency
// collector. Receive drivers stamp softirq dequeue with their own queue's
// clock, aggregation engines stamp aggregate close, and the stack stamps
// stack entry; endpoints registered after this call record into col (when
// non-nil). All of it reads clocks only — nothing here can perturb the
// schedule or the charged cycles.
func (m *NativeMachine) SetTelemetry(col *telemetry.Collector, stampClock func(cpu int) uint64) {
	m.telCol = col
	m.stampClock = stampClock
	if stampClock == nil {
		return
	}
	for ni := range m.drvs {
		for q := range m.drvs[ni] {
			qq := q
			m.drvs[ni][q].StampClock = func() uint64 { return stampClock(qq) }
		}
	}
	for cpu, rp := range m.rps {
		c := cpu
		rp.Engine().Clock = func() uint64 { return stampClock(c) }
	}
	m.Stack.StampClock = stampClock
}

// laneMeter returns the charging meter for work attributed to cpu: the
// lane shard under the parallel scheduler, the machine meter otherwise.
func (m *NativeMachine) laneMeter(cpu int) *cycles.Meter {
	if m.laneMeters != nil {
		return m.laneMeters[cpu]
	}
	return &m.Meter
}

// laneAlloc is laneMeter's allocator counterpart.
func (m *NativeMachine) laneAlloc(cpu int) *buf.Allocator {
	if m.laneAllocs != nil {
		return m.laneAllocs[cpu]
	}
	return m.Alloc
}

// NICs returns the machine's NICs.
func (m *NativeMachine) NICs() []*nic.NIC { return m.nics }

// CPUs returns the number of softirq CPUs (= RSS queues per NIC).
func (m *NativeMachine) CPUs() int { return m.cpus }

// WireInterrupts routes every NIC queue's interrupt onto its NAPI poll
// list and then to the owning CPU's scheduler slot. Only queues that have
// signaled are polled in a round — this is what preserves per-device
// batching (and therefore the achievable aggregation factor) when the CPU
// is not saturated.
func (m *NativeMachine) WireInterrupts(kick func(cpu int)) {
	m.wired = true
	for i := range m.nics {
		idx := i
		m.nics[idx].OnInterrupt = func(q int) {
			m.polling[idx][q] = true
			kick(q)
		}
	}
}

// ReceivePath returns CPU 0's optimized path (nil in baseline mode).
func (m *NativeMachine) ReceivePath() *core.ReceivePath {
	if len(m.rps) == 0 {
		return nil
	}
	return m.rps[0]
}

// ReceivePaths returns every CPU's optimized path (nil in baseline mode).
func (m *NativeMachine) ReceivePaths() []*core.ReceivePath { return m.rps }

// FlowTable exposes the stack's sharded demux table.
func (m *NativeMachine) FlowTable() *netstack.FlowTable { return m.Stack.FlowTable() }

// Netstack exposes the receiving stack.
func (m *NativeMachine) Netstack() *netstack.Stack { return m.Stack }

// SteerMap returns the machine's live bucket→CPU steering map.
func (m *NativeMachine) SteerMap() *rss.Map { return m.steerMap }

// SteerTargets: every softirq CPU can own buckets and applications.
func (m *NativeMachine) SteerTargets() int { return m.cpus }

// SteerBucket repoints bucket b to cpu. Handoff order matters: the old
// owner's pending aggregates for the bucket's flows are flushed *before*
// the table is rewritten, so every frame the old CPU has already absorbed
// reaches the stack ahead of anything the new CPU will aggregate — no
// aggregate ever contains frames from both sides of the boundary. Frames
// still queued on the old CPU (NIC ring, raw softirq queue) are processed
// there later and counted as shard steals, which is exactly what they are.
func (m *NativeMachine) SteerBucket(b, cpu int) {
	old := m.steerMap.Entry(b)
	if old == cpu {
		return
	}
	if m.rps != nil {
		m.rps[old].FlushWhere(func(k aggregate.FlowKey) bool {
			return rss.Bucket(rss.HashTCP4(k.Src, k.Dst, k.SrcPort, k.DstPort)) == b
		})
	}
	m.steerMap.Set(b, cpu)
	m.flushCoalescing()
}

// flushCoalescing fires any coalesced-but-unraised interrupt after a
// steering rewrite. A rewrite cuts the old queue's arrival stream mid-
// batch; with the wire still busy (so the link's idle flush never comes)
// a stranded sub-threshold batch would otherwise sit in the ring
// indefinitely, and a flow whose ACK clock depends on it deadlocks —
// the coalescing/migration interaction Wu et al. warn about. Real drivers
// kick the queue when they touch steering state; so does this machine.
func (m *NativeMachine) flushCoalescing() {
	for _, n := range m.nics {
		n.FlushInterrupt()
	}
}

// SteerFlow programs an aRFS rule steering flow k onto cpu: pending
// aggregation state for the flow is drained from every engine (it lives in
// at most one), the rule is installed on the NIC that carries the flow's
// subnet, and the flow table's ownership override follows. An evicted
// victim's key is returned for the policy to forget; the victim's
// ownership override is cleared so accounting falls back to its bucket.
func (m *NativeMachine) SteerFlow(k netstack.FlowKey, hash uint32, cpu int) (*netstack.FlowKey, error) {
	table := m.Stack.FlowTable()
	if table.OwnerOf(k, hash) == cpu {
		return nil, nil
	}
	core.FlushFlow(m.rps, k.Src, k.Dst, k.SrcPort, k.DstPort)
	t := nic.FlowTuple{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort}
	victim, err := m.nics[m.nicOf(k)].ProgramFlowRule(t, cpu)
	if err != nil {
		return nil, err
	}
	table.SetFlowOwner(k, cpu)
	m.flushCoalescing()
	if victim == nil {
		return nil, nil
	}
	// The evicted victim is itself re-steered (back to its bucket's
	// indirection), so it gets the same handoff: drop the override and
	// drain its pending state before frames can land elsewhere.
	vk := netstack.FlowKey{Src: victim.Src, Dst: victim.Dst, SrcPort: victim.SrcPort, DstPort: victim.DstPort}
	table.ClearFlowOwner(vk)
	core.FlushFlow(m.rps, vk.Src, vk.Dst, vk.SrcPort, vk.DstPort)
	return &vk, nil
}

// UnsteerFlow removes flow k's aRFS rule (rule aging): the flow reverts
// to its bucket's indirection with the standard migration handoff —
// pending aggregation state (including any resequencing window) drained,
// ownership override cleared, coalesced interrupts kicked. The simulation
// is single-threaded, so no frame can arrive between these steps.
func (m *NativeMachine) UnsteerFlow(k netstack.FlowKey) {
	t := nic.FlowTuple{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort}
	if !m.nics[m.nicOf(k)].RemoveFlowRule(t) {
		return
	}
	m.Stack.FlowTable().ClearFlowOwner(k)
	core.FlushFlow(m.rps, k.Src, k.Dst, k.SrcPort, k.DstPort)
	m.flushCoalescing()
}

// nicOf maps a flow to the NIC carrying its sender subnet (10.0.<n>.x).
func (m *NativeMachine) nicOf(k netstack.FlowKey) int {
	if n := int(k.Src[2]); n < len(m.nics) {
		return n
	}
	return 0
}

// ProcessRound runs one softirq round on the given CPU: polls of that
// CPU's queue on every NIC, aggregation on that CPU's receive path, stack
// and endpoint processing, plus the per-frame misc (and SMP coherence)
// charges.
func (m *NativeMachine) ProcessRound(cpu, budget int) (int, bool) {
	frames := 0
	more := false
	for i := range m.drvs {
		// Unwired machines (directly driven tests) poll every queue;
		// wired machines follow the NAPI poll lists.
		if m.wired && !m.polling[i][cpu] {
			continue
		}
		n := m.drvs[i][cpu].Poll(budget)
		frames += n
		if n == budget {
			more = true // stays on the poll list (NAPI)
		} else {
			m.polling[i][cpu] = false
		}
	}
	if m.rps != nil {
		m.rps[cpu].Process(1 << 30)
	}
	if frames > 0 {
		if m.laneFrames != nil {
			m.laneFrames[cpu] += uint64(frames)
		} else {
			m.framesIn += uint64(frames)
		}
		misc := m.Params.MiscPerPacket
		if m.Params.SMP {
			misc += m.Params.SMPMiscExtra
		}
		m.laneMeter(cpu).Charge(cycles.Misc, uint64(frames)*misc)
	}
	return frames, more
}

// MeterRef returns the machine's cycle meter.
func (m *NativeMachine) MeterRef() *cycles.Meter { return &m.Meter }

// MeterSnapshot returns the machine's total charged cycles: the base
// meter plus every per-CPU lane shard (uint64 sums per category, so the
// result is exactly the serial meter's snapshot for the same work).
func (m *NativeMachine) MeterSnapshot() cycles.Snapshot {
	if m.laneMeters == nil {
		return m.Meter.Snapshot()
	}
	var tot cycles.Meter
	m.Meter.AddInto(&tot)
	for _, lm := range m.laneMeters {
		lm.AddInto(&tot)
	}
	return tot.Snapshot()
}

// AllocRef returns the machine's allocator.
func (m *NativeMachine) AllocRef() *buf.Allocator { return m.Alloc }

// ParamsRef returns the machine's cost profile.
func (m *NativeMachine) ParamsRef() *cost.Params { return &m.Params }

// RegisterEndpoint adds a receiver endpoint to the stack and timer list.
// With per-CPU contexts armed, the endpoint is rebound onto the lane of
// the CPU that owns its flow's steering bucket — the queue all its frames
// arrive on — so its receive processing is lane-local.
func (m *NativeMachine) RegisterEndpoint(ep *tcp.Endpoint, remoteIP, localIP [4]byte, remotePort, localPort uint16) error {
	if err := m.Stack.Register(ep, remoteIP, localIP, remotePort, localPort); err != nil {
		return err
	}
	if m.laneMeters != nil {
		owner := m.steerMap.Queue(rss.HashTCP4(remoteIP, localIP, remotePort, localPort))
		ep.Rebind(m.laneMeters[owner], m.laneAllocs[owner], m.cfg.LaneClocks[owner])
		ep.Output = m.Stack.OutputOn(owner)
	}
	if m.telCol != nil {
		// The flow's frames all arrive on the queue its steering bucket
		// owns, so its latency samples land in that CPU's shard — lane-
		// local under the parallel scheduler, merged deterministically.
		owner := m.steerMap.Queue(rss.HashTCP4(remoteIP, localIP, remotePort, localPort))
		sc := m.stampClock
		ep.SetLatencyRecorder(m.telCol.Lane(owner), func() uint64 { return sc(owner) })
	}
	m.eps = append(m.eps, ep)
	return nil
}

// UnregisterEndpoint removes an endpoint from the demux table (connection
// teardown), dropping any steering rule programmed for it. The endpoint
// stays on the machine's timer/accounting list so bytes it delivered
// remain counted.
func (m *NativeMachine) UnregisterEndpoint(remoteIP, localIP [4]byte, remotePort, localPort uint16) {
	m.Stack.Unregister(remoteIP, localIP, remotePort, localPort)
	k := netstack.FlowKey{Src: remoteIP, Dst: localIP, SrcPort: remotePort, DstPort: localPort}
	n := m.nics[m.nicOf(k)]
	if n.FlowRuleLen() > 0 {
		n.RemoveFlowRule(nic.FlowTuple{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort})
	}
}

// Endpoints returns the registered endpoints.
func (m *NativeMachine) Endpoints() []*tcp.Endpoint { return m.eps }

// HostPacketsIn returns host packets delivered to the stack.
func (m *NativeMachine) HostPacketsIn() uint64 { return m.Stack.Stats().HostPacketsIn }

// NetFramesIn returns network frames consumed from the NIC rings (base
// count plus per-CPU lane shards).
func (m *NativeMachine) NetFramesIn() uint64 {
	total := m.framesIn
	for _, n := range m.laneFrames {
		total += n
	}
	return total
}

// nativeRouter picks the outgoing driver by the destination IP's third
// octet (one sender subnet per NIC: 10.0.<i>.x). Transmission always uses
// the NIC's queue-0 driver; the device's transmit path is queue-agnostic.
type nativeRouter struct{ m *NativeMachine }

// Transmit routes one outgoing host packet to its NIC driver.
func (r nativeRouter) Transmit(skb *buf.SKB) {
	m := r.m
	l3 := skb.L3()
	d := m.drvs[0][0]
	if len(l3) >= 20 {
		if idx := int(l3[18]); idx < len(m.drvs) {
			d = m.drvs[idx][0]
		}
	}
	d.Transmit(skb)
}

// laneRouter is nativeRouter's per-CPU counterpart: the same subnet→NIC
// routing, but through the lane's own transmit drivers.
type laneRouter struct {
	m   *NativeMachine
	cpu int
}

// Transmit routes one outgoing host packet to the lane's driver for its
// NIC.
func (r laneRouter) Transmit(skb *buf.SKB) {
	m := r.m
	l3 := skb.L3()
	d := m.laneTx[r.cpu][0]
	if len(l3) >= 20 {
		if idx := int(l3[18]); idx < len(m.laneTx[r.cpu]) {
			d = m.laneTx[r.cpu][idx]
		}
	}
	d.Transmit(skb)
}
