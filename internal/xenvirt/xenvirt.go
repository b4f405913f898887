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
// I/O channels, each an event channel and a grant-copy batch. The
// physical NICs steer frames by the Toeplitz hash (static RSS,
// rss.QueueOf), dom0 runs one NAPI driver — and, in optimized mode, one
// aggregation engine (core.ReceivePath) — per (NIC, queue), and queue q's
// output crosses I/O channel q into guest vCPU q's netfront, which feeds
// the guest stack's sharded flow table. rss.QueueOf names the dom0 queue,
// the channel and the shard owner alike, so a flow's packets always reach
// the same guest vCPU and no per-flow structure is ever touched by two
// vCPUs.
//
// Driver-domain queue q and guest vCPU q are pinned to the same host core
// (the standard multi-queue netfront/netback deployment), so when netback
// sends the event, netfront consumes it synchronously in the same softirq
// round — which is also exactly the paper's single-queue machine when
// Queues = 1.
//
// # One event loop
//
// Like the native machine, this machine runs on the simulator's one serial
// event loop. The dom0 bridge/netback stage is a serialization point every
// queue's traffic flows through (grant-copy batches, the shared
// event-channel demultiplexer); virtual time, not host threads, models how
// the cores' work overlaps.
package xenvirt

import (
	"fmt"
	"slices"

	"repro/internal/buf"
	"repro/internal/cycles"
	"repro/internal/frontend"
)

// Machine is one Xen host: hypervisor + driver domain + one guest. The
// embedded front end is the driver domain's — NICs, dom0 drivers and
// aggregation — with the guest's stack as its receiving stack; driver
// output goes to the bridge. Static RSS is also the channel map: hash h
// rides dom0 queue, I/O channel and guest vCPU rss.QueueOf(h, queues),
// which is why shard ownership (and hence steal accounting) follows it.
// The softirq round on vCPU q is the embedded FrontEnd's Poll(q, budget).
type Machine struct {
	frontend.FrontEnd
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
	m := &Machine{}
	// Queue q's driver output crosses I/O channel q to vCPU q's netfront,
	// which feeds the guest stack's sharded flow table, attributing the
	// delivery to that vCPU.
	deliver := func(q int) func(*buf.SKB) {
		netfront := m.Stack.InputOn(q)
		return func(skb *buf.SKB) { m.bridgeReceive(skb, netfront) }
	}
	if err := m.Init(cfg, deliver); err != nil {
		return nil, fmt.Errorf("xenvirt: %w", err)
	}
	// A round polls up to PollBudget frames from every NIC into a CPU's
	// aggregation queue, and the CPU-bound guest's queues reach that
	// depth: they get it as their first size instead of doubling to it.
	for _, rp := range m.ReceivePaths() {
		rp.SetQueueFirstSize(frontend.PollBudget * cfg.NICCount)
	}
	m.Stack.Tx = txChain{m}
	return m, nil
}

// bridgeReceive is the driver domain's bridge + netfilter hop, followed by
// netback: the packet is grant-copied into guest memory as one batched
// hypercall and the event channel is signaled. The channel is the queue
// the packet arrived on, whose vCPU shares this core and is already in
// softirq, so netfront consumes the event synchronously (the paper's
// synchronous traversal): netfront's costs are charged here and the guest
// copy goes to netfront, that vCPU's guest stack input.
func (m *Machine) bridgeReceive(skb *buf.SKB, netfront func(*buf.SKB)) {
	frags := skb.NetPackets
	// Bridge + dom0 netfilter: per host packet (non-proto, §2.4).
	m.Meter.Charge(cycles.NonProto, m.Params.BridgePerPacket+m.Params.NetfilterPerPacket)
	// Netback: per host packet plus per fragment (§5.1).
	m.Meter.Charge(cycles.Netback,
		m.Params.NetbackPerPacket+uint64(frags)*m.Params.NetbackPerFrag)

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

	// Netfront: per host packet plus per fragment.
	m.Meter.Charge(cycles.Netfront,
		m.Params.NetfrontPerPacket+uint64(guestSKB.NetPackets)*m.Params.NetfrontPerFrag)
	netfront(guestSKB)
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
	g.Frags = slices.Grow(g.Frags, len(skb.Frags))
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
