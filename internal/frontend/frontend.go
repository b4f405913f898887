// Package frontend is the receive front end both simulated machines share:
// NICs, per-queue NAPI drivers, per-queue Receive Aggregation paths
// (internal/core), the receiving stack, endpoint registration and
// transmit routing. Steering is static RSS: one pure function,
// rss.QueueOf, picks the NIC queue and the flow table's owner CPU, so
// queue q and CPU q always carry the same buckets. The native machine
// (internal/sim) feeds driver output straight into its stack; the Xen
// machine (internal/xenvirt) is the same front end in the driver domain,
// feeding the bridge, whose netback and netfront hand queue q's packets
// to the guest's stack through I/O channel q within the same call.
// Either way Poll is the machine's whole softirq round on one CPU.
package frontend

import (
	"fmt"
	"slices"

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

// Mode selects a machine's receive-path configuration.
type Mode int

const (
	// ModeBaseline is the stock receive path.
	ModeBaseline Mode = iota
	// ModeOptimized enables Receive Aggregation directly behind the NIC
	// driver (ACK offload is the endpoint's AckOffload flag).
	ModeOptimized
)

// PollBudget is the NAPI budget of a softirq round: the most frames Poll
// takes from each NIC queue's driver per round (Linux's netdev weight).
const PollBudget = 64

// Config assembles a receive front end: the machine fields the native and
// the paravirtual receivers share.
type Config struct {
	// Params is the machine cost profile (NativeUP, NativeSMP, XenGuest,
	// ...).
	Params cost.Params
	// NICCount is the number of Gigabit NICs (the paper uses five).
	NICCount int
	// Queues is the number of RSS receive queues per NIC; queue q is
	// polled from softirq CPU q. 0 or 1 reproduces the paper's
	// single-queue, single-softirq machine exactly.
	Queues int
	// Mode selects baseline or optimized.
	Mode Mode
	// Aggregation configures the optimized path.
	Aggregation core.Options
}

// FrontEnd is the receive front end every simulated machine embeds: the
// NICs, one NAPI driver per (NIC, queue), one aggregation path per queue
// in optimized mode, the receiving stack, endpoint registration and
// transmit routing. Natively the stack is the host's and
// driver output enters it directly; on Xen the front end is the driver
// domain's (§2.4: aggregation runs "directly behind the NIC driver") and
// driver output crosses the bridge to the guest's stack.
//
// Multi-queue layout: NIC n's receive queue q is serviced by the driver
// drvs[n][q], polled from softirq CPU q. In optimized mode CPU q owns the
// receive path rps[q] — aggregation queue and aggregation engine — so
// every per-flow structure on the hot path is CPU-local (see
// ARCHITECTURE.md).
type FrontEnd struct {
	Meter  cycles.Meter
	Params cost.Params
	Alloc  *buf.Allocator
	// Stack is the receiving stack: the host's natively, the guest's on
	// Xen.
	Stack *netstack.Stack

	nics     []*nic.NIC
	drvs     [][]*driver.Driver  // [nic][queue]
	rps      []*core.ReceivePath // [queue]; nil slice in baseline mode
	eps      []*tcp.Endpoint     // timer and accounting list; nil: a retired endpoint's slot
	framesIn uint64
	polling  [][]bool // NAPI poll lists: [nic][queue] with signaled irq
	wired    bool     // interrupts routed via WireInterrupts

	// queues is the RSS queue count: flow hash h rides queue, CPU and
	// (on Xen) I/O channel rss.QueueOf(h, queues).
	queues int

	// Telemetry wiring (nil when off): the run's latency collector
	// endpoints record into, and the one stamp clock behind every stage
	// stamp.
	telCol     *telemetry.Collector
	stampClock func() uint64

	// free holds retired endpoints for OpenEndpoint to reset and reuse;
	// retired totals their counters as they were at retirement. slab holds
	// the ReserveEndpoints records no endpoint has used yet.
	free    []*tcp.Endpoint
	retired tcp.Stats
	slab    []tcp.Endpoint
}

// Init builds the front end in place. deliver(q) names where queue q's
// driver output goes — the stack's InputOn(q) natively, the bridge on Xen.
// deliver is called after Stack exists.
func (fe *FrontEnd) Init(cfg Config, deliver func(q int) func(*buf.SKB)) error {
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	if cfg.NICCount <= 0 {
		return fmt.Errorf("frontend: NICCount %d must be positive", cfg.NICCount)
	}
	if cfg.Queues == 0 {
		cfg.Queues = 1
	}
	if cfg.Queues < 0 || cfg.Queues > rss.Buckets {
		return fmt.Errorf("frontend: Queues %d must be in [1, %d]", cfg.Queues, rss.Buckets)
	}
	fe.queues = cfg.Queues
	fe.Params = cfg.Params
	fe.Alloc = buf.NewAllocator(&fe.Meter, &fe.Params)
	fe.Alloc.SetPool(buf.NewPool())
	fe.Stack = netstack.New(&fe.Meter, &fe.Params, fe.Alloc)
	fe.Stack.Tx = fe
	fe.Stack.FlowTable().SetOwnerQueues(cfg.Queues)

	out := make([]func(*buf.SKB), cfg.Queues)
	for q := range out {
		out[q] = deliver(q)
	}
	if cfg.Mode == ModeOptimized {
		for q := range out {
			rp, err := core.New(cfg.Aggregation, &fe.Meter, &fe.Params, fe.Alloc, out[q])
			if err != nil {
				return err
			}
			fe.rps = append(fe.rps, rp)
		}
	}
	for i := 0; i < cfg.NICCount; i++ {
		ncfg := nic.DefaultConfig(fmt.Sprintf("eth%d", i))
		ncfg.RxQueues = cfg.Queues
		n, err := nic.New(ncfg)
		if err != nil {
			return err
		}
		qdrvs := make([]*driver.Driver, cfg.Queues)
		for q := range qdrvs {
			if cfg.Mode == ModeOptimized {
				qdrvs[q] = driver.NewQueue(n, q, driver.ModeRaw, &fe.Meter, &fe.Params, fe.Alloc)
				qdrvs[q].DeliverRaw = fe.rps[q].EnqueueRaw
			} else {
				qdrvs[q] = driver.NewQueue(n, q, driver.ModeBaseline, &fe.Meter, &fe.Params, fe.Alloc)
				qdrvs[q].DeliverSKB = out[q]
			}
		}
		fe.nics = append(fe.nics, n)
		fe.drvs = append(fe.drvs, qdrvs)
		fe.polling = append(fe.polling, make([]bool, cfg.Queues))
	}
	return nil
}

// SetTelemetry wires the stage-stamp clock and latency collector. Receive
// drivers stamp softirq dequeue, aggregation engines stamp aggregate
// close, and the stack stamps stack entry (on Xen the grant copy carries
// the stamps across the domain boundary), all from the one stampClock;
// endpoints registered after this call record into col (when non-nil).
// All of it reads clocks only — nothing here can perturb the schedule or
// the charged cycles.
func (fe *FrontEnd) SetTelemetry(col *telemetry.Collector, stampClock func() uint64) {
	fe.telCol = col
	fe.stampClock = stampClock
	for _, qdrvs := range fe.drvs {
		for _, d := range qdrvs {
			d.StampClock = stampClock
		}
	}
	for _, rp := range fe.rps {
		rp.Engine().Clock = stampClock
	}
	fe.Stack.StampClock = stampClock
}

// NICs returns the machine's NICs (wire side).
func (fe *FrontEnd) NICs() []*nic.NIC { return fe.nics }

// CPUs returns the softirq CPU count: one per queue. Every CPU can own
// buckets and flows.
func (fe *FrontEnd) CPUs() int { return fe.queues }

// WireInterrupts routes every NIC queue's interrupt onto its NAPI poll
// list and then to the owning CPU's scheduler slot. Only queues that have
// signaled are polled in a round — this is what preserves per-device
// batching (and therefore the achievable aggregation factor) when the CPU
// is not saturated.
func (fe *FrontEnd) WireInterrupts(kick func(cpu int)) {
	fe.wired = true
	for i := range fe.nics {
		idx := i
		fe.nics[idx].OnInterrupt = func(q int) {
			fe.polling[idx][q] = true
			kick(q)
		}
	}
}

// Poll runs one softirq round on CPU q: that queue's driver on every NIC,
// then the queue's aggregation path, then everything delivery reaches —
// on Xen the bridge, netback, grant copy and netfront — through the
// stack and the endpoints, and finally the per-frame misc work
// (interrupt bookkeeping, timers, domain switches; SMP coherence on an
// SMP profile). It returns the network frames consumed and whether a
// driver exhausted its budget (NAPI keeps it on the poll list: the CPU
// must run another round without waiting for an interrupt).
func (fe *FrontEnd) Poll(q, budget int) (frames int, more bool) {
	for i := range fe.drvs {
		// Unwired machines (directly driven tests) poll every queue;
		// wired machines follow the NAPI poll lists.
		if fe.wired && !fe.polling[i][q] {
			continue
		}
		n := fe.drvs[i][q].Poll(budget)
		frames += n
		if n == budget {
			more = true // stays on the poll list (NAPI)
		} else {
			fe.polling[i][q] = false
		}
	}
	if fe.rps != nil {
		fe.rps[q].Process(1 << 30)
	}
	fe.framesIn += uint64(frames)
	misc := fe.Params.MiscPerPacket + fe.Params.Dom0MiscPerFrame
	if fe.Params.SMP {
		misc += fe.Params.SMPMiscExtra
	}
	fe.Meter.Charge(cycles.Misc, uint64(frames)*misc)
	return frames, more
}

// ReceivePaths returns every queue's optimized path (nil in baseline
// mode).
func (fe *FrontEnd) ReceivePaths() []*core.ReceivePath { return fe.rps }

// FlowTable exposes the stack's sharded demux table.
func (fe *FrontEnd) FlowTable() *netstack.FlowTable { return fe.Stack.FlowTable() }

// RegisterEndpoint adds a receiver endpoint to the stack's demux table and
// the machine's timer list, and wires it to the latency collector
// SetTelemetry named (none when telemetry is off).
func (fe *FrontEnd) RegisterEndpoint(ep *tcp.Endpoint, remoteIP, localIP [4]byte, remotePort, localPort uint16) error {
	if err := fe.Stack.Register(ep, remoteIP, localIP, remotePort, localPort); err != nil {
		return err
	}
	ep.SetLatencyRecorder(fe.telCol, fe.stampClock)
	fe.eps = append(fe.eps, ep)
	return nil
}

// ReserveEndpoints carves the records of the n endpoints the machine is
// about to open from one allocation, and makes room for them on the
// endpoint list, so opening a population costs one allocation instead of
// one per endpoint. OpenEndpoint takes a record from the slab once the
// free list is empty; what the slab does not cover is allocated singly.
func (fe *FrontEnd) ReserveEndpoints(n int) {
	fe.slab = make([]tcp.Endpoint, n)
	fe.eps = slices.Grow(fe.eps, n)
}

// OpenEndpoint makes an endpoint for cfg that charges this machine and
// reads virtual time from clock, and registers it like RegisterEndpoint.
// It resets a retired endpoint when there is one, else the next record of
// the ReserveEndpoints slab, and allocates one only when both are used
// up. It returns the endpoint and its slot in Endpoints, the handle
// RetireEndpoint takes.
func (fe *FrontEnd) OpenEndpoint(cfg tcp.Config, clock tcp.Clock, remoteIP, localIP [4]byte, remotePort, localPort uint16) (*tcp.Endpoint, int, error) {
	ep := fe.takeEndpoint()
	if err := ep.Reset(cfg, &fe.Meter, &fe.Params, fe.Alloc, clock); err != nil {
		fe.free = append(fe.free, ep) // never opened: as good as retired
		return nil, 0, err
	}
	slot := len(fe.eps)
	if err := fe.RegisterEndpoint(ep, remoteIP, localIP, remotePort, localPort); err != nil {
		fe.free = append(fe.free, ep) // never registered: as good as retired
		return nil, 0, err
	}
	return ep, slot, nil
}

// takeEndpoint returns the record OpenEndpoint resets: a retired endpoint,
// else the slab's next record, else a new one.
func (fe *FrontEnd) takeEndpoint() *tcp.Endpoint {
	if n := len(fe.free); n > 0 {
		ep := fe.free[n-1]
		fe.free = fe.free[:n-1]
		return ep
	}
	if len(fe.slab) > 0 {
		ep := &fe.slab[0]
		fe.slab = fe.slab[1:]
		return ep
	}
	return new(tcp.Endpoint)
}

// UnregisterEndpoint removes an endpoint from the demux table (connection
// teardown). The endpoint stays on the machine's timer/accounting list
// until RetireEndpoint takes it off.
func (fe *FrontEnd) UnregisterEndpoint(remoteIP, localIP [4]byte, remotePort, localPort uint16) {
	fe.Stack.Unregister(remoteIP, localIP, remotePort, localPort)
}

// RetireEndpoint ends the life of the unregistered endpoint in slot (from
// OpenEndpoint): its counters fold into EndpointStats' retired total, the
// slot becomes a nil tombstone, so Endpoints keeps its length and
// positions, and the endpoint waits on the free list for OpenEndpoint.
// Nothing reaches a quiescent unregistered endpoint, so retiring it
// changes no result. An endpoint that is not quiescent (an armed timer or
// queued out-of-order data) stays on the timer list, and RetireEndpoint
// reports false; it reports true once the slot is retired, now or before.
func (fe *FrontEnd) RetireEndpoint(slot int) bool {
	ep := fe.eps[slot]
	if ep == nil {
		return true
	}
	if !ep.Quiescent() {
		return false
	}
	fe.retired = fe.retired.Add(ep.Stats())
	fe.eps[slot] = nil
	fe.free = append(fe.free, ep)
	return true
}

// Endpoints returns the registered endpoints in registration order. A
// retired endpoint's slot holds nil.
func (fe *FrontEnd) Endpoints() []*tcp.Endpoint { return fe.eps }

// EndpointStats returns the counters of every endpoint ever registered,
// retired ones included: sums, with OOOPeak the largest.
func (fe *FrontEnd) EndpointStats() tcp.Stats {
	total := fe.retired
	for _, ep := range fe.eps {
		if ep != nil {
			total = total.Add(ep.Stats())
		}
	}
	return total
}

// HostPacketsIn returns host packets delivered to the stack.
func (fe *FrontEnd) HostPacketsIn() uint64 { return fe.Stack.Stats().HostPacketsIn }

// NetFramesIn returns network frames consumed from the NIC rings.
func (fe *FrontEnd) NetFramesIn() uint64 { return fe.framesIn }

// Transmit sends one outgoing host packet out of the NIC facing its
// destination: with one NIC per sender subnet, the destination IP's third
// octet (10.0.<i>.x) selects the NIC; out-of-range values fall back to NIC
// 0. Transmission always uses the NIC's queue-0 driver; the device's
// transmit path is queue-agnostic.
func (fe *FrontEnd) Transmit(skb *buf.SKB) {
	d := fe.drvs[0][0]
	if l3 := skb.L3(); len(l3) >= 20 {
		if idx := int(l3[18]); idx < len(fe.drvs) {
			d = fe.drvs[idx][0]
		}
	}
	d.Transmit(skb)
}
