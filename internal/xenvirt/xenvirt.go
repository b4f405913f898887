// Package xenvirt implements the Xen network virtualization substrate of
// the paper's third evaluated system (§2.4, Figure 5): a privileged driver
// domain owns the physical NICs and multiplexes them to a guest through a
// software bridge, a netback/netfront paravirtual driver pair, and
// hypervisor grant-copy and event-channel operations.
//
// The receive path of one host packet is:
//
//	NIC -> dom0 driver -> [Receive Aggregation, optimized mode]
//	    -> bridge (+ netfilter)           [non-proto, dom0]
//	    -> netback                        [netback; per packet + per frag]
//	    -> grant copy                     [xen per frag; per-byte copy #1]
//	    -> event channel                  [xen]
//	    -> netfront                       [netfront; per packet + per frag]
//	    -> guest IP/TCP stack             [rx, tx, buffer, non-proto]
//	    -> guest application copy         [per-byte copy #2]
//
// ACKs traverse the same path in reverse. In the optimized configuration,
// Receive Aggregation runs in the driver domain directly behind the NIC
// driver, so a 20-fragment aggregate crosses the bridge, netback, the I/O
// channel and netfront once; ACK templates likewise cross once and are
// expanded by the dom0 NIC driver (§4.2 allows "the driver, or a proxy for
// the driver"). The netback/netfront and grant costs keep their
// per-fragment components, which is why the paper measures a smaller
// (3.7x) per-packet reduction here than natively (§5.1).
//
// # Multi-queue paravirtual receive
//
// Beyond the paper's single-softirq machine, the paravirtual path scales
// the same way the native RSS pipeline does (ARCHITECTURE.md): with
// Config.Queues = N the machine runs N per-vCPU I/O channels, each a
// bounded netfront ring (softirq.Context) plus an event channel and a
// grant-copy batch. The physical NICs steer frames with the Toeplitz
// hash/indirection table (internal/rss), dom0 runs one NAPI driver — and,
// in optimized mode, one aggregation engine (core.ReceivePath) — per
// (NIC, queue), and netback steers bridged host packets onto the I/O
// channel named by the same hash, so a flow's packets always reach the
// same guest vCPU. Each vCPU's netfront context feeds the guest stack's
// sharded flow table; shard = f(bucket) and channel = bucket mod queues,
// so no per-flow structure is ever touched by two vCPUs.
//
// Driver-domain queue q and guest vCPU q are pinned to the same host core
// (the standard multi-queue netfront/netback deployment): when netback
// sends the event for a packet whose channel lives on the core already in
// softirq, netfront consumes it synchronously in the same round — which is
// also exactly the paper's single-queue machine when Queues = 1. Only a
// packet whose channel belongs to another core (unhashable traffic seen
// from a non-zero queue, or asymmetric configurations) stays on the ring
// until the owning vCPU's next round, woken through the event-channel
// kick.
//
// # Serial scheduling only
//
// The intra-run parallel scheduler (sim/parsched.go) does not partition
// this machine: the dom0 bridge/netback stage is a serialization point
// every queue's traffic flows through (grant-copy batches, the shared
// event-channel demultiplexer, cross-channel netback steering of
// unhashable traffic), so there is no lane decomposition whose cross-lane
// traffic is bounded by a link delay the way the native machine's is.
// StreamConfig.ParallelScheduler on a Xen config therefore silently runs
// the serial path — same results, no error — rather than a lane split
// that would have to barrier on every grant batch.
package xenvirt

import (
	"fmt"

	"repro/internal/aggregate"
	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/driver"
	"repro/internal/ipv4"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/rss"
	"repro/internal/softirq"
	"repro/internal/tcp"
	"repro/internal/tcpwire"
	"repro/internal/telemetry"
)

// Mode selects the receive-path configuration.
type Mode int

const (
	// ModeBaseline is the stock virtualized path.
	ModeBaseline Mode = iota
	// ModeOptimized enables Receive Aggregation in the driver domain
	// (ACK offload is the guest endpoint's AckOffload flag).
	ModeOptimized
)

// Config assembles a Xen machine.
type Config struct {
	// Params must be the XenGuest cost profile (or a variant).
	Params cost.Params
	// NICCount is the number of physical NICs in the driver domain.
	NICCount int
	// Queues is the number of RSS queues per NIC (dom0 driver/softirq
	// contexts). 0 or 1 is the paper's single-softirq,
	// single-event-channel machine, bit for bit.
	Queues int
	// GuestVCPUs is the number of paravirtual I/O channels (= guest
	// vCPUs on the receive path). 0 = Queues, the symmetric pinned
	// topology; a different value models the asymmetric deployment where
	// the driver domain's queue count and the guest's vCPU count differ
	// — netback then re-steers bridged packets across the I/O channels,
	// exercising the cross-vCPU event path.
	GuestVCPUs int
	// Mode selects baseline or optimized.
	Mode Mode
	// Aggregation configures the dom0 aggregation engine (optimized).
	Aggregation core.Options
	// Clock supplies virtual time.
	Clock tcp.Clock
	// FlowRuleSlots sizes each NIC's exact-match steering-rule table
	// (0 = no aRFS filters).
	FlowRuleSlots int
	// FlowLayout selects the guest flow-table shard layout (default: the
	// cache-conscious open-addressed layout; LayoutSeedMap is the priced
	// Go-map baseline).
	FlowLayout netstack.FlowLayout
}

// Stats aggregates machine-level counters.
type Stats struct {
	FramesIn    uint64
	HostPackets uint64
	GrantCopies uint64
	EvtChnKicks uint64
}

// ChannelStats counts one I/O channel's activity (receive direction).
type ChannelStats struct {
	// HostPackets is the number of host packets netback pushed onto this
	// channel; NetFrames counts their constituent network frames.
	HostPackets, NetFrames uint64
	// GrantBatches is the number of batched grant-copy hypercalls (one
	// per host packet crossing: the batch covers all of its fragments);
	// GrantOps counts the individual per-fragment copy operations inside
	// those batches.
	GrantBatches, GrantOps uint64
	// EvtChnKicks is the number of event-channel notifications netback
	// sent for this channel.
	EvtChnKicks uint64
	// RemoteKicks counts notifications that targeted a vCPU other than
	// the core running netback (the packet waited on the ring for the
	// owning vCPU's softirq round).
	RemoteKicks uint64
	// RingFullDrops counts host packets dropped because the netfront
	// ring was full (the paravirtual analogue of a backlog overflow).
	RingFullDrops uint64
}

// ioChannel is one per-vCPU I/O channel between netback and netfront: the
// bounded netfront ring with its softirq consumer, the event-channel
// state, and the grant-batch accounting.
type ioChannel struct {
	ctx   *softirq.Context[*buf.SKB]
	stats ChannelStats
}

// netfrontRingSlots is the netfront receive ring capacity per channel
// (256 slots, the classic netfront RX ring size).
const netfrontRingSlots = 256

// Machine is one Xen host: hypervisor + driver domain + one guest.
type Machine struct {
	Meter  cycles.Meter
	Params cost.Params
	Alloc  *buf.Allocator
	// GuestStack is the guest's network stack; register endpoints here.
	GuestStack *netstack.Stack

	cfg     Config
	queues  int // dom0 RSS queues per NIC
	vcpus   int // guest vCPUs = I/O channels
	nics    []*nic.NIC
	drvs    [][]*driver.Driver  // [nic][queue]
	rps     []*core.ReceivePath // [queue]; nil slice in baseline mode
	chans   []*ioChannel        // [vcpu]
	eps     []*tcp.Endpoint
	polling [][]bool // dom0 NAPI poll lists: [nic][queue]
	wired   bool     // interrupts routed via WireInterrupts
	kick    func(cpu int)
	curCPU  int // vCPU of the softirq round in progress (-1 outside)
	stats   Stats

	// nicMap steers buckets onto dom0 NIC queues; chanMap steers them
	// onto I/O channels (guest vCPUs). Symmetric topologies keep the two
	// in lockstep; shard ownership (and hence steal accounting) follows
	// chanMap, because the guest stack runs on the channel's vCPU.
	nicMap  *rss.Map
	chanMap *rss.Map
	// chanRules are netback's per-flow aRFS overrides, mirroring the NIC
	// rule table but resolving to a channel instead of a queue.
	chanRules map[nic.FlowTuple]int

	// Telemetry wiring (nil when off): the latency collector guest
	// endpoints record into, and the per-CPU stamp clock behind every
	// stage stamp.
	telCol     *telemetry.Collector
	stampClock func(cpu int) uint64
}

// New assembles a Xen machine.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("xenvirt: %w", err)
	}
	if cfg.Params.NetbackPerPacket == 0 || cfg.Params.NetfrontPerPacket == 0 {
		return nil, fmt.Errorf("xenvirt: profile %q lacks virtualization costs", cfg.Params.Name)
	}
	if cfg.NICCount <= 0 {
		return nil, fmt.Errorf("xenvirt: NICCount %d must be positive", cfg.NICCount)
	}
	if cfg.Queues == 0 {
		cfg.Queues = 1
	}
	if cfg.Queues < 0 || cfg.Queues > rss.Buckets {
		return nil, fmt.Errorf("xenvirt: Queues %d must be in [1, %d]", cfg.Queues, rss.Buckets)
	}
	if cfg.GuestVCPUs == 0 {
		cfg.GuestVCPUs = cfg.Queues
	}
	if cfg.GuestVCPUs < 0 || cfg.GuestVCPUs > rss.Buckets {
		return nil, fmt.Errorf("xenvirt: GuestVCPUs %d must be in [1, %d]", cfg.GuestVCPUs, rss.Buckets)
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("xenvirt: Clock must be set")
	}
	m := &Machine{cfg: cfg, queues: cfg.Queues, vcpus: cfg.GuestVCPUs, Params: cfg.Params, curCPU: -1}
	m.Alloc = buf.NewAllocator(&m.Meter, &m.Params)
	m.Alloc.SetPool(buf.NewPool())
	m.GuestStack = netstack.NewLayout(&m.Meter, &m.Params, m.Alloc, cfg.FlowLayout)
	m.GuestStack.Tx = txChain{m}
	m.GuestStack.SetQueues(m.vcpus)
	nm, err := rss.NewMap(m.queues)
	if err != nil {
		return nil, fmt.Errorf("xenvirt: %w", err)
	}
	cm, err := rss.NewMap(m.vcpus)
	if err != nil {
		return nil, fmt.Errorf("xenvirt: %w", err)
	}
	m.nicMap, m.chanMap = nm, cm
	m.chanRules = make(map[nic.FlowTuple]int)
	m.GuestStack.FlowTable().SetOwnerMap(m.chanMap)

	// Per-vCPU I/O channels: netfront ring + softirq consumer. The
	// handler charges netfront's per-packet and per-fragment costs and
	// feeds the guest stack's sharded flow table, attributing the
	// delivery to this vCPU.
	for q := 0; q < m.vcpus; q++ {
		ctx, err := softirq.NewContext[*buf.SKB](q, netfrontRingSlots)
		if err != nil {
			return nil, fmt.Errorf("xenvirt: %w", err)
		}
		input := m.GuestStack.InputOn(q)
		ctx.Handle = func(skb *buf.SKB) {
			m.Meter.Charge(cycles.Netfront,
				m.Params.NetfrontPerPacket+uint64(skb.NetPackets)*m.Params.NetfrontPerFrag)
			input(skb)
		}
		m.chans = append(m.chans, &ioChannel{ctx: ctx})
	}

	if cfg.Mode == ModeOptimized {
		opts := cfg.Aggregation
		if opts.QueueCapacity == 0 {
			opts = core.DefaultOptions()
			opts.Aggregation = cfg.Aggregation.Aggregation
			if opts.Aggregation.Limit == 0 {
				agg := opts.Aggregation
				opts.Aggregation = core.DefaultOptions().Aggregation
				opts.Aggregation.ReorderWindow = agg.ReorderWindow
				opts.Aggregation.ReorderWindowBytes = agg.ReorderWindowBytes
			}
		}
		for q := 0; q < m.queues; q++ {
			rp, err := core.NewOnCPU(q, opts, &m.Meter, &m.Params, m.Alloc, m.bridgeReceive)
			if err != nil {
				return nil, fmt.Errorf("xenvirt: %w", err)
			}
			m.rps = append(m.rps, rp)
		}
	}

	for i := 0; i < cfg.NICCount; i++ {
		ncfg := nic.DefaultConfig(fmt.Sprintf("eth%d", i))
		ncfg.RxQueues = m.queues
		ncfg.Indir = m.nicMap
		ncfg.FlowRuleSlots = cfg.FlowRuleSlots
		ncfg.IntThrottleFrames = 16 // e1000-style interrupt throttling; the
		// link flushes the line when the wire goes idle, so latency
		// workloads are not delayed (§5.4)
		n, err := nic.New(ncfg)
		if err != nil {
			return nil, fmt.Errorf("xenvirt: %w", err)
		}
		qdrvs := make([]*driver.Driver, m.queues)
		for q := 0; q < m.queues; q++ {
			var d *driver.Driver
			if cfg.Mode == ModeOptimized {
				d = driver.NewQueue(n, q, driver.ModeRaw, &m.Meter, &m.Params, m.Alloc)
				d.DeliverRaw = m.rps[q].EnqueueRaw
			} else {
				d = driver.NewQueue(n, q, driver.ModeBaseline, &m.Meter, &m.Params, m.Alloc)
				d.DeliverSKB = m.bridgeReceive
			}
			qdrvs[q] = d
		}
		m.nics = append(m.nics, n)
		m.drvs = append(m.drvs, qdrvs)
	}
	m.polling = make([][]bool, len(m.nics))
	for i := range m.polling {
		m.polling[i] = make([]bool, m.queues)
	}
	return m, nil
}

// CPUs returns the softirq CPU count. Symmetric topologies have one CPU
// per queue = channel = vCPU; asymmetric ones size the set to cover both
// the dom0 queues and the guest vCPUs (each core still runs its dom0
// queue q < Queues and/or its guest vCPU q < GuestVCPUs).
func (m *Machine) CPUs() int {
	if m.vcpus > m.queues {
		return m.vcpus
	}
	return m.queues
}

// Queues returns the dom0 RSS queue count; GuestVCPUs the I/O channel
// count.
func (m *Machine) Queues() int     { return m.queues }
func (m *Machine) GuestVCPUs() int { return m.vcpus }

// WireInterrupts routes every NIC queue's interrupt onto the dom0 NAPI
// poll list and then to the owning CPU's scheduler slot (see sim.Machine).
// The kick function is also how netback delivers cross-vCPU event-channel
// notifications.
func (m *Machine) WireInterrupts(kick func(cpu int)) {
	m.wired = true
	m.kick = kick
	for i := range m.nics {
		idx := i
		m.nics[idx].OnInterrupt = func(q int) {
			m.polling[idx][q] = true
			kick(q)
		}
	}
}

// NICs returns the physical NICs (wire side).
func (m *Machine) NICs() []*nic.NIC { return m.nics }

// SetTelemetry wires the stage-stamp clocks and latency collector (see
// sim.Machine). The dom0 drivers stamp softirq dequeue with their queue's
// clock, the dom0 aggregation engines stamp aggregate close, and the
// guest stack stamps stack entry; the grant copy carries the stamps
// across the domain boundary. Guest endpoints registered after this call
// record into col (when non-nil). Observation only: nothing here charges
// a cycle or schedules an event.
func (m *Machine) SetTelemetry(col *telemetry.Collector, stampClock func(cpu int) uint64) {
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
	for q, rp := range m.rps {
		qq := q
		rp.Engine().Clock = func() uint64 { return stampClock(qq) }
	}
	m.GuestStack.StampClock = stampClock
}

// Stats returns machine counters.
func (m *Machine) Stats() Stats { return m.stats }

// ChannelStatsOf returns a copy of I/O channel q's counters.
func (m *Machine) ChannelStatsOf(q int) ChannelStats { return m.chans[q].stats }

// NetfrontContext exposes vCPU q's netfront softirq context (stats, tests).
func (m *Machine) NetfrontContext(q int) *softirq.Context[*buf.SKB] { return m.chans[q].ctx }

// ReceivePath returns vCPU 0's dom0 aggregation path (nil in baseline mode).
func (m *Machine) ReceivePath() *core.ReceivePath {
	if len(m.rps) == 0 {
		return nil
	}
	return m.rps[0]
}

// ReceivePaths returns every vCPU's dom0 aggregation path (nil in baseline
// mode).
func (m *Machine) ReceivePaths() []*core.ReceivePath { return m.rps }

// FlowTable exposes the guest stack's sharded demux table.
func (m *Machine) FlowTable() *netstack.FlowTable { return m.GuestStack.FlowTable() }

// Netstack exposes the guest stack.
func (m *Machine) Netstack() *netstack.Stack { return m.GuestStack }

// SteerMap returns the channel map — the bucket→vCPU steering that
// defines guest shard ownership.
func (m *Machine) SteerMap() *rss.Map { return m.chanMap }

// SteerTargets: steering places consumers, and consumers are guest
// vCPUs; dom0-only cores (queues beyond the vCPU count on an asymmetric
// machine) own no channel and cannot be steering targets.
func (m *Machine) SteerTargets() int { return m.vcpus }

// SteerBucket repoints bucket b to guest vCPU cpu. The dom0 aggregation
// engine of the bucket's old NIC queue is drained first (no aggregate may
// span the boundary), then both indirections move: the NIC steers the
// bucket to queue cpu mod Queues (keeping dom0 work co-located with the
// vCPU where the topology allows) and netback steers it to channel cpu.
// Frames already in the old queue's rings are re-steered by netback onto
// the *new* channel when dom0 polls them — the cross-vCPU event path —
// so the guest never sees a stale delivery.
func (m *Machine) SteerBucket(b, cpu int) {
	old := m.chanMap.Entry(b)
	if old == cpu {
		return
	}
	oldQ := m.nicMap.Entry(b)
	newQ := cpu % m.queues
	if m.rps != nil && oldQ != newQ {
		m.rps[oldQ].FlushWhere(func(k aggregate.FlowKey) bool {
			return rss.Bucket(rss.HashTCP4(k.Src, k.Dst, k.SrcPort, k.DstPort)) == b
		})
	}
	m.nicMap.Set(b, newQ)
	m.chanMap.Set(b, cpu)
	m.flushCoalescing()
}

// flushCoalescing fires coalesced-but-unraised NIC interrupts after a
// steering rewrite: a rewrite cuts a queue's arrival stream mid-batch,
// and with the wire still busy a stranded sub-threshold batch would
// otherwise wait forever (the coalescing/migration hazard Wu et al.
// document). Real drivers kick the queue when touching steering state.
func (m *Machine) flushCoalescing() {
	for _, n := range m.nics {
		n.FlushInterrupt()
	}
}

// SteerFlow programs an aRFS rule steering flow k onto guest vCPU cpu:
// dom0 pending aggregation state for the flow is drained, the NIC rule
// steers its frames to queue cpu mod Queues, and netback's rule overrides
// the channel choice so the flow lands on vCPU cpu. The guest flow
// table's ownership override follows. An evicted victim is returned for
// the policy to forget.
func (m *Machine) SteerFlow(k netstack.FlowKey, hash uint32, cpu int) (*netstack.FlowKey, error) {
	table := m.GuestStack.FlowTable()
	if table.OwnerOf(k, hash) == cpu {
		return nil, nil
	}
	core.FlushFlow(m.rps, k.Src, k.Dst, k.SrcPort, k.DstPort)
	t := nic.FlowTuple{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort}
	victim, err := m.nics[m.nicOf(k)].ProgramFlowRule(t, cpu%m.queues)
	if err != nil {
		return nil, err
	}
	m.chanRules[t] = cpu
	table.SetFlowOwner(k, cpu)
	m.flushCoalescing()
	if victim == nil {
		return nil, nil
	}
	// The evicted victim reverts to its bucket's indirection: same
	// handoff as any re-steer — drop the overrides, drain its pending
	// dom0 state.
	delete(m.chanRules, *victim)
	vk := netstack.FlowKey{Src: victim.Src, Dst: victim.Dst, SrcPort: victim.SrcPort, DstPort: victim.DstPort}
	table.ClearFlowOwner(vk)
	core.FlushFlow(m.rps, vk.Src, vk.Dst, vk.SrcPort, vk.DstPort)
	return &vk, nil
}

// UnsteerFlow removes flow k's aRFS rule from the NIC and netback's
// mirror (rule aging): the flow reverts to its bucket's indirection with
// the standard handoff — dom0 pending aggregation state (including any
// resequencing window) drained, the guest table's ownership override
// cleared, coalesced interrupts kicked. No-op when no rule exists.
func (m *Machine) UnsteerFlow(k netstack.FlowKey) {
	t := nic.FlowTuple{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort}
	if _, ok := m.chanRules[t]; !ok {
		return
	}
	delete(m.chanRules, t)
	m.nics[m.nicOf(k)].RemoveFlowRule(t)
	m.GuestStack.FlowTable().ClearFlowOwner(k)
	core.FlushFlow(m.rps, k.Src, k.Dst, k.SrcPort, k.DstPort)
	m.flushCoalescing()
}

// nicOf maps a flow to the NIC carrying its sender subnet (10.0.<n>.x).
func (m *Machine) nicOf(k netstack.FlowKey) int {
	if n := int(k.Src[2]); n < len(m.nics) {
		return n
	}
	return 0
}

// flowTupleOf extracts the four-tuple from a bridged host packet's
// headers (netback's rule lookup); ok is false for non-TCP traffic.
func flowTupleOf(skb *buf.SKB) (nic.FlowTuple, bool) {
	l3 := skb.L3()
	ih, err := ipv4.ParseHeaderOnly(l3)
	if err != nil || ih.Proto != ipv4.ProtoTCP {
		return nic.FlowTuple{}, false
	}
	segEnd := ih.TotalLen
	if segEnd > len(l3) {
		segEnd = len(l3)
	}
	th, err := tcpwire.Parse(l3[ih.IHL:segEnd])
	if err != nil {
		return nic.FlowTuple{}, false
	}
	return nic.FlowTuple{Src: ih.Src, Dst: ih.Dst, SrcPort: th.SrcPort, DstPort: th.DstPort}, true
}

// ProcessRound runs one softirq round on the given vCPU: pending netfront
// work delivered by other vCPUs' netback, dom0 driver polls of this CPU's
// queue on every NIC, dom0 aggregation, the bridge/netback/netfront
// traversal of what they produced, guest stack processing, and the
// per-frame misc charges of both domains. It returns the number of network
// frames consumed.
func (m *Machine) ProcessRound(cpu, budget int) (int, bool) {
	prev := m.curCPU
	m.curCPU = cpu
	defer func() { m.curCPU = prev }()

	// Event-channel work first: packets other vCPUs' netback queued on
	// this vCPU's netfront ring since its last round. (On an asymmetric
	// topology a core beyond the guest's vCPU count runs dom0 work only.)
	if cpu < m.vcpus {
		m.chans[cpu].ctx.Run(1 << 30)
	}

	frames := 0
	more := false
	if cpu < m.queues {
		for i := range m.drvs {
			// Unwired machines (directly driven tests) poll every queue;
			// wired machines follow the NAPI poll lists.
			if m.wired && !m.polling[i][cpu] {
				continue
			}
			n := m.drvs[i][cpu].Poll(budget)
			frames += n
			if n == budget {
				more = true
			} else {
				m.polling[i][cpu] = false
			}
		}
		if m.rps != nil {
			m.rps[cpu].Process(1 << 30)
		}
	}
	if frames > 0 {
		m.stats.FramesIn += uint64(frames)
		// Misc work scales with network frames in both domains:
		// interrupt bookkeeping, timers, domain switches.
		m.Meter.Charge(cycles.Misc,
			uint64(frames)*(m.Params.MiscPerPacket+m.Params.Dom0MiscPerFrame))
	}
	return frames, more
}

// bridgeReceive is the driver domain's bridge + netfilter hop, followed by
// netback: the I/O channel is chosen by the frame's Toeplitz hash — the
// same indirection the physical NIC used (internal/rss), so channel q only
// ever carries queue q's flows — the packet is grant-copied into guest
// memory as one batched hypercall, pushed onto the channel's netfront
// ring, and the event channel is signaled. A channel owned by the core
// already in softirq consumes the event synchronously; any other vCPU is
// woken through the scheduler kick.
func (m *Machine) bridgeReceive(skb *buf.SKB) {
	m.stats.HostPackets++
	frags := skb.NetPackets
	// Bridge + dom0 netfilter: per host packet (non-proto, §2.4).
	m.Meter.Charge(cycles.NonProto, m.Params.BridgePerPacket+m.Params.NetfilterPerPacket)
	// Netback: per host packet plus per fragment (§5.1).
	m.Meter.Charge(cycles.Netback,
		m.Params.NetbackPerPacket+uint64(frags)*m.Params.NetbackPerFrag)
	// Netback steering: an aRFS rule wins, else channel = live
	// indirection of the Toeplitz hash — in lockstep with the NIC's
	// queue choice on symmetric topologies, re-steered across the I/O
	// channels on asymmetric ones or after a rebalance, so flow affinity
	// spans the driver domain under dynamic steering too.
	c := 0
	steered := false
	if len(m.chanRules) > 0 {
		if t, ok := flowTupleOf(skb); ok {
			if ch, hit := m.chanRules[t]; hit {
				c, steered = ch, true
			}
		}
	}
	if !steered && m.vcpus > 1 && skb.RSSHash != 0 {
		c = m.chanMap.Queue(skb.RSSHash)
	}
	ch := m.chans[c]

	// Netback checks ring space before copying (as real netback does):
	// a full netfront ring drops the packet here, before any grant work
	// or event is spent on it.
	if ch.ctx.Len() == ch.ctx.Cap() {
		ch.stats.RingFullDrops++
		m.Alloc.Free(skb)
		return
	}

	// Hypervisor: grant validation per fragment, event channel and
	// scheduling per host packet.
	m.Meter.Charge(cycles.Xen,
		uint64(frags)*m.Params.XenGrantPerFrag+
			m.Params.XenEvtChnPerPacket+m.Params.XenSchedPerPacket)
	m.stats.EvtChnKicks++

	// Grant copy: the first of the two per-byte copies (§2.4). The data
	// really moves between domains, so the guest gets its own buffers.
	// One batch of per-fragment copy ops per host packet (GrantCopyFixed
	// is the batched hypercall's fixed cost).
	guestSKB := m.grantCopy(skb)

	// The dom0 SKB is done; the guest owns the copy from here on.
	m.Alloc.Free(skb)

	ch.stats.HostPackets++
	ch.stats.NetFrames += uint64(frags)
	ch.stats.GrantBatches++
	ch.stats.GrantOps += uint64(frags)
	ch.stats.EvtChnKicks++
	ch.ctx.Enqueue(guestSKB) // cannot fail: space checked above
	if c == m.curCPU {
		// The owning vCPU shares this core: the event is consumed in
		// the current softirq round (the paper's synchronous traversal,
		// and the Queues=1 degenerate case).
		ch.ctx.Run(1 << 30)
		return
	}
	// Cross-vCPU event: the packet waits on the netfront ring for the
	// owning vCPU's round.
	ch.stats.RemoteKicks++
	if m.kick != nil {
		m.kick(c)
	}
}

// grantCopy copies the packet into guest memory, charging the batched
// hypercall's fixed cost once and per-byte cost per fragment run (each run
// is a fresh stream for the prefetcher). The guest buffers come from the
// machine's frame pool and are released when the guest frees the SKB.
func (m *Machine) grantCopy(skb *buf.SKB) *buf.SKB {
	m.stats.GrantCopies++
	head, pooled := m.Alloc.FrameBuf(len(skb.Head))
	copy(head, skb.Head)
	m.Meter.Charge(cycles.Xen, m.Params.GrantCopyFixed)
	m.Meter.Charge(cycles.PerByte, m.Params.Mem.CopyCost(len(skb.Head)))

	g := m.Alloc.NewData(head, skb.L3Offset)
	g.Pooled = pooled
	g.CsumVerified = skb.CsumVerified
	g.RSSHash = skb.RSSHash
	g.Aggregated = skb.Aggregated
	g.FirstAck = skb.FirstAck
	// Stage stamps cross the domain boundary with the data.
	g.SentNs, g.ArriveNs, g.DequeueNs, g.AggCloseNs =
		skb.SentNs, skb.ArriveNs, skb.DequeueNs, skb.AggCloseNs
	for i := range skb.Frags {
		f := skb.Frags[i]
		data, pooled := m.Alloc.FrameBuf(len(f.Data))
		copy(data, f.Data)
		m.Meter.Charge(cycles.PerByte, m.Params.Mem.CopyCost(len(f.Data)))
		frag := buf.Frag{Data: data, Ack: f.Ack, TSVal: f.TSVal}
		if pooled {
			frag.Buf = data
		}
		m.Alloc.AttachFrag(g, frag)
	}
	return g
}

// txChain is the guest's transmitter: netfront -> netback -> bridge ->
// dom0 NIC driver (which expands ACK templates).
type txChain struct{ m *Machine }

// Transmit sends one guest host packet toward the wire.
func (t txChain) Transmit(skb *buf.SKB) {
	m := t.m
	// Netfront tx: per host packet (single-fragment ACKs/templates).
	m.Meter.Charge(cycles.Netfront, m.Params.NetfrontPerPacket+m.Params.NetfrontPerFrag)
	// Grant copy of the (small) packet into dom0: the hypercall is
	// hypervisor work, the streamed bytes are per-byte.
	m.Meter.Charge(cycles.Xen, m.Params.GrantCopyFixed)
	m.Meter.Charge(cycles.PerByte, m.Params.Mem.CopyCost(len(skb.Head)))
	// Hypervisor work for the reverse crossing.
	m.Meter.Charge(cycles.Xen, m.Params.XenGrantPerFrag+m.Params.XenEvtChnPerPacket)
	m.stats.EvtChnKicks++
	// Netback tx.
	m.Meter.Charge(cycles.Netback, m.Params.NetbackPerPacket)
	// Bridge back to the physical NIC.
	m.Meter.Charge(cycles.NonProto, m.Params.BridgePerPacket)
	// Route to the NIC facing the destination and transmit (expanding
	// templates at the dom0 driver).
	d := m.routeTx(skb)
	d.Transmit(skb)
}

// routeTx picks the outgoing driver. With one NIC per sender subnet the
// third octet of the destination IP selects the NIC; out-of-range values
// fall back to NIC 0. Transmission always uses the NIC's queue-0 driver;
// the device's transmit path is queue-agnostic.
func (m *Machine) routeTx(skb *buf.SKB) *driver.Driver {
	l3 := skb.L3()
	if len(l3) >= 20 {
		idx := int(l3[18]) // destination IP third octet: 10.0.<idx>.x
		if idx >= 0 && idx < len(m.drvs) {
			return m.drvs[idx][0]
		}
	}
	return m.drvs[0][0]
}

// FlushTimers fires guest endpoint timers due at virtual time now.
// (Endpoints are registered on GuestStack; the sim tracks them itself, so
// this is a convenience for direct-driving tests.)
func (m *Machine) FlushTimers(now uint64, eps []*tcp.Endpoint) {
	for _, ep := range eps {
		if d := ep.NextTimeout(); d != 0 && now >= d {
			ep.OnTimeout(now)
		}
	}
}

// The following accessors let the simulation drive native and Xen machines
// through one interface (see internal/sim).

// MeterRef returns the machine's cycle meter.
func (m *Machine) MeterRef() *cycles.Meter { return &m.Meter }

// AllocRef returns the machine's buffer allocator.
func (m *Machine) AllocRef() *buf.Allocator { return m.Alloc }

// ParamsRef returns the machine's cost profile.
func (m *Machine) ParamsRef() *cost.Params { return &m.Params }

// RegisterEndpoint adds a guest endpoint to the stack's demux table and the
// machine's timer list.
func (m *Machine) RegisterEndpoint(ep *tcp.Endpoint, remoteIP, localIP [4]byte, remotePort, localPort uint16) error {
	if err := m.GuestStack.Register(ep, remoteIP, localIP, remotePort, localPort); err != nil {
		return err
	}
	if m.telCol != nil {
		// The flow's packets all reach the guest on the vCPU its channel
		// map names, so its latency samples land in that lane's shard.
		owner := m.chanMap.Queue(rss.HashTCP4(remoteIP, localIP, remotePort, localPort))
		sc := m.stampClock
		ep.SetLatencyRecorder(m.telCol.Lane(owner), func() uint64 { return sc(owner) })
	}
	m.eps = append(m.eps, ep)
	return nil
}

// UnregisterEndpoint removes a guest endpoint from the demux table
// (connection teardown), dropping any steering rules programmed for it;
// it stays on the timer/accounting list.
func (m *Machine) UnregisterEndpoint(remoteIP, localIP [4]byte, remotePort, localPort uint16) {
	m.GuestStack.Unregister(remoteIP, localIP, remotePort, localPort)
	t := nic.FlowTuple{Src: remoteIP, Dst: localIP, SrcPort: remotePort, DstPort: localPort}
	if _, ok := m.chanRules[t]; ok {
		delete(m.chanRules, t)
		m.nics[m.nicOf(netstack.FlowKey(t))].RemoveFlowRule(t)
	}
}

// Endpoints returns the guest endpoints in registration order.
func (m *Machine) Endpoints() []*tcp.Endpoint { return m.eps }

// HostPacketsIn returns host packets delivered into the guest stack.
func (m *Machine) HostPacketsIn() uint64 { return m.GuestStack.Stats().HostPacketsIn }

// NetFramesIn returns network frames consumed from the NICs.
func (m *Machine) NetFramesIn() uint64 { return m.stats.FramesIn }
