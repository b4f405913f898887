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
// frontend.Config.Queues = N the guest has N vCPUs and the machine runs N
// per-vCPU I/O channels, each a bounded netfront ring (softirq.Context)
// plus an event channel and a grant-copy batch. The physical NICs steer frames with the Toeplitz
// hash/indirection table (internal/rss), dom0 runs one NAPI driver — and,
// in optimized mode, one aggregation engine (core.ReceivePath) — per
// (NIC, queue), and netback steers bridged host packets onto the I/O
// channel the same indirection names, so a flow's packets always reach
// the same guest vCPU. Each vCPU's netfront context feeds the guest stack's
// sharded flow table; the front end's one bucket map names the dom0
// queue, the channel and the shard owner alike, so no per-flow structure
// is ever touched by two vCPUs.
//
// Driver-domain queue q and guest vCPU q are pinned to the same host core
// (the standard multi-queue netfront/netback deployment): when netback
// sends the event for a packet whose channel lives on the core already in
// softirq, netfront consumes it synchronously in the same round — which is
// also exactly the paper's single-queue machine when Queues = 1. Only a
// packet whose channel belongs to another core (unhashable traffic seen
// from a non-zero queue, or frames a steering change caught on the old
// queue) stays on the ring until the owning vCPU's next round, woken
// through the event-channel kick.
//
// # One event loop
//
// Like the native machine, this machine runs on the simulator's one serial
// event loop. The dom0 bridge/netback stage is a serialization point every
// queue's traffic flows through (grant-copy batches, the shared
// event-channel demultiplexer, cross-channel netback steering of
// unhashable traffic); virtual time, not host threads, models how the
// cores' work overlaps.
package xenvirt

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/cycles"
	"repro/internal/frontend"
	"repro/internal/ipv4"
	"repro/internal/rss"
	"repro/internal/softirq"
	"repro/internal/tcpwire"
)

// netfrontRingSlots is the netfront receive ring capacity per channel
// (256 slots, the classic netfront RX ring size).
const netfrontRingSlots = 256

// Machine is one Xen host: hypervisor + driver domain + one guest. The
// embedded front end is the driver domain's — NICs, dom0 drivers and
// aggregation, the NIC indirection — with the guest's stack as its
// receiving stack; driver output goes to the bridge. The NIC indirection
// (SteerMap) is also the channel map: bucket b rides dom0 queue, I/O
// channel and guest vCPU SteerMap()[b], which is why shard ownership (and
// hence steal accounting) follows it.
type Machine struct {
	frontend.FrontEnd

	// chans holds each vCPU's I/O channel between netback and netfront:
	// the bounded netfront ring with its softirq consumer. The event
	// channel and the grant batch are priced per host packet in
	// bridgeReceive.
	chans  []*softirq.Context[*buf.SKB] // [vcpu]
	curCPU int                          // vCPU of the softirq round in progress (-1 outside)
}

// New assembles a Xen machine from the shared front-end config: Params
// must be the XenGuest cost profile or a variant, and Queues is the number
// of RSS queues per NIC, dom0 driver/softirq contexts, I/O channels and
// guest vCPUs alike (0 or 1 is the paper's single-softirq,
// single-event-channel machine, bit for bit).
func New(cfg frontend.Config) (*Machine, error) {
	if cfg.Params.NetbackPerPacket == 0 || cfg.Params.NetfrontPerPacket == 0 {
		return nil, fmt.Errorf("xenvirt: profile %q lacks virtualization costs", cfg.Params.Name)
	}
	m := &Machine{curCPU: -1}
	if err := m.Init(cfg, func(int) func(*buf.SKB) { return m.bridgeReceive }); err != nil {
		return nil, fmt.Errorf("xenvirt: %w", err)
	}
	m.Stack.Tx = txChain{m}

	// Per-vCPU I/O channels: netfront ring + softirq consumer. The
	// handler charges netfront's per-packet and per-fragment costs and
	// feeds the guest stack's sharded flow table, attributing the
	// delivery to this vCPU.
	for q := 0; q < m.CPUs(); q++ {
		ctx, err := softirq.NewContext[*buf.SKB](netfrontRingSlots)
		if err != nil {
			return nil, fmt.Errorf("xenvirt: %w", err)
		}
		input := m.Stack.InputOn(q)
		ctx.Handle = func(skb *buf.SKB) {
			m.Meter.Charge(cycles.Netfront,
				m.Params.NetfrontPerPacket+uint64(skb.NetPackets)*m.Params.NetfrontPerFrag)
			input(skb)
		}
		m.chans = append(m.chans, ctx)
	}
	return m, nil
}

// flowKeyOf extracts the four-tuple from a bridged host packet's headers
// (netback's override lookup); ok is false for non-TCP traffic.
func flowKeyOf(skb *buf.SKB) (rss.FlowKey, bool) {
	l3 := skb.L3()
	ih, err := ipv4.ParseHeaderOnly(l3)
	if err != nil || ih.Proto != ipv4.ProtoTCP {
		return rss.FlowKey{}, false
	}
	segEnd := ih.TotalLen
	if segEnd > len(l3) {
		segEnd = len(l3)
	}
	th, err := tcpwire.Parse(l3[ih.IHL:segEnd])
	if err != nil {
		return rss.FlowKey{}, false
	}
	return rss.FlowKey{Src: ih.Src, Dst: ih.Dst, SrcPort: th.SrcPort, DstPort: th.DstPort}, true
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
	// this vCPU's netfront ring since its last round.
	m.chans[cpu].Run(1 << 30)

	frames, more := m.Poll(cpu, budget)
	if frames > 0 {
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
	frags := skb.NetPackets
	// Bridge + dom0 netfilter: per host packet (non-proto, §2.4).
	m.Meter.Charge(cycles.NonProto, m.Params.BridgePerPacket+m.Params.NetfilterPerPacket)
	// Netback: per host packet plus per fragment (§5.1).
	m.Meter.Charge(cycles.Netback,
		m.Params.NetbackPerPacket+uint64(frags)*m.Params.NetbackPerFrag)
	// Netback steering: the flow's aRFS override in the guest flow
	// table (FrontEnd.SteerFlow records it) wins, else channel = live
	// indirection entry of the Toeplitz hash — the NIC's own queue choice,
	// and after a rebalance the new owner even for frames the old queue
	// still held, so flow affinity spans the driver domain under dynamic
	// steering too. Unhashable traffic without an override rides
	// channel 0.
	c := 0
	steered := false
	if ft := m.FlowTable(); ft.FlowOwnerOverrides() > 0 {
		if k, ok := flowKeyOf(skb); ok {
			c, steered = ft.FlowOwner(k)
		}
	}
	if !steered && len(m.chans) > 1 && skb.RSSHash != 0 {
		c = m.SteerMap().Queue(skb.RSSHash)
	}
	ch := m.chans[c]

	// Netback checks ring space before copying (as real netback does):
	// a full netfront ring drops the packet here, before any grant work
	// or event is spent on it.
	if ch.Len() == ch.Cap() {
		m.Alloc.Free(skb)
		return
	}

	// Hypervisor: grant validation per fragment, event channel and
	// scheduling per host packet.
	m.Meter.Charge(cycles.Xen,
		uint64(frags)*m.Params.XenGrantPerFrag+
			m.Params.XenEvtChnPerPacket+m.Params.XenSchedPerPacket)

	// Grant copy: the first of the two per-byte copies (§2.4). The data
	// really moves between domains, so the guest gets its own buffers.
	// One batch of per-fragment copy ops per host packet (GrantCopyFixed
	// is the batched hypercall's fixed cost).
	guestSKB := m.grantCopy(skb)

	// The dom0 SKB is done; the guest owns the copy from here on.
	m.Alloc.Free(skb)

	ch.Enqueue(guestSKB) // cannot fail: space checked above
	if c == m.curCPU {
		// The owning vCPU shares this core: the event is consumed in
		// the current softirq round (the paper's synchronous traversal,
		// and the Queues=1 degenerate case).
		ch.Run(1 << 30)
		return
	}
	// Cross-vCPU event: the packet waits on the netfront ring for the
	// owning vCPU's round.
	m.Kick(c)
}

// grantCopy copies the packet into guest memory, charging the batched
// hypercall's fixed cost once and per-byte cost per fragment run (each run
// is a fresh stream for the prefetcher). The guest buffers come from the
// machine's frame pool and are released when the guest frees the SKB.
func (m *Machine) grantCopy(skb *buf.SKB) *buf.SKB {
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
	// Netback tx.
	m.Meter.Charge(cycles.Netback, m.Params.NetbackPerPacket)
	// Bridge back to the physical NIC.
	m.Meter.Charge(cycles.NonProto, m.Params.BridgePerPacket)
	// Route to the NIC facing the destination and transmit (expanding
	// templates at the dom0 driver).
	m.Transmit(skb)
}
