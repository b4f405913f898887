package sim

import (
	"fmt"
	"math"

	"repro/internal/ipv4"
	"repro/internal/netstack"
	"repro/internal/tcp"
)

// This file is the many-flow workload generator: it owns connection
// addressing, opens the initial flow population, skews per-flow offered
// rates, and runs connection arrival/teardown churn. The paper's
// experiments are the degenerate case — a handful of uniform, immortal
// flows — while the multi-queue RSS pipeline is exercised with thousands
// of flows, heavy-hitter rate skew and endpoint churn, whose teardowns
// run the full FIN drain → TIME_WAIT → reap state machine.

// flowRecord is one live connection's addressing.
type flowRecord struct {
	nicIdx          int
	senderIP, rcvIP ipv4.Addr
	sPort, rPort    uint16
	ep              *tcp.Endpoint // the receiver endpoint
	slot            int           // ep's slot on the machine's endpoint list
}

// key returns the demux key the receiver sees for this flow.
func (f flowRecord) key() netstack.FlowKey {
	return netstack.FlowKey{Src: f.senderIP, Dst: f.rcvIP, SrcPort: f.sPort, DstPort: f.rPort}
}

// portPair is a (sender, receiver) port pair freed by a TIME_WAIT reap,
// available for a fresh churn connection.
type portPair struct{ s, r uint16 }

// flowGen opens flows over the wired topology.
type flowGen struct {
	top *streamTopology
	cfg *StreamConfig

	next      int // round-robin NIC cursor / initial port index
	churnPort int // port counter for churn replacements
	live      []flowRecord

	// recycled holds churn-range port pairs reaped out of TIME_WAIT:
	// once the linear churn range is exhausted, replacements redial
	// these instead of silently failing (the four-tuples are fully
	// unregistered, so reopening them collides with nothing).
	recycled []portPair

	// onOpen, when set, observes every receiver endpoint as it opens —
	// churn replacements included (property tests attach their
	// verification sinks here, before any byte flows).
	onOpen func(*tcp.Endpoint)

	// perLink is applySkew's scratch, one weighted flow list per NIC,
	// kept so a churn tick's re-skew allocates nothing.
	perLink [][]rankedFlow
}

// rankedFlow is a live flow's sender port with its zipf weight
// (applySkew).
type rankedFlow struct {
	sPort uint16
	w     float64
}

// Churn replacement flows draw ports from a range disjoint from the
// initial population's (which starts at 5001/44000 and grows by one per
// round-robin lap), so reopened flows never collide with live ones. The
// range holds churnPortPairs pairs, shared by every churn flow still
// registered, live or torn down.
const (
	churnSenderPortBase   = 20000
	churnReceiverPortBase = 55000
	churnPortPairs        = math.MaxUint16 - churnReceiverPortBase + 1
)

// newFlowGen makes the generator with room for the run's initial flows.
func newFlowGen(top *streamTopology, cfg *StreamConfig) *flowGen {
	return &flowGen{top: top, cfg: cfg, live: make([]flowRecord, 0, cfg.Connections),
		perLink: make([][]rankedFlow, cfg.NICs)}
}

// openFlow opens the next initial flow, round-robin across NICs. Sender i
// on NIC n has address 10.0.<n>.1, the receiver 10.0.<n>.2; ports
// disambiguate connections sharing a link.
func (g *flowGen) openFlow() error {
	c := g.next
	g.next++
	n := c % g.cfg.NICs
	port := c / g.cfg.NICs
	// The initial ranges must stay below the churn bases so replacement
	// flows can never collide with an initial flow's four-tuple.
	if 5001+port >= churnSenderPortBase || 44000+port >= churnReceiverPortBase {
		return fmt.Errorf("sim: connection %d exceeds the initial per-link port range (%d per link)",
			c, churnReceiverPortBase-44000)
	}
	return g.open(n, uint16(5001+port), uint16(44000+port))
}

// openChurnFlow opens a replacement flow on NIC n with fresh ports (a new
// connection: new four-tuple, new RSS bucket, cold congestion window).
// When the linear churn range runs out it redials port pairs reaped out
// of TIME_WAIT; only with the recycle pool also empty does it fail.
func (g *flowGen) openChurnFlow(n int) error {
	if g.churnPort >= churnPortPairs {
		if len(g.recycled) > 0 {
			p := g.recycled[len(g.recycled)-1]
			g.recycled = g.recycled[:len(g.recycled)-1]
			return g.open(n, p.s, p.r)
		}
		return fmt.Errorf("sim: churn count %d exhausts the port space", g.churnPort)
	}
	p := g.churnPort
	g.churnPort++
	return g.open(n, uint16(churnSenderPortBase+p), uint16(churnReceiverPortBase+p))
}

// recycle returns a reaped flow's port pair to the churn pool. Only
// churn-range pairs are pooled, so every replacement stays in the churn
// range.
func (g *flowGen) recycle(rec flowRecord) {
	if rec.sPort >= churnSenderPortBase && rec.sPort < churnReceiverPortBase {
		g.recycled = append(g.recycled, portPair{s: rec.sPort, r: rec.rPort})
	}
}

// seedIdleFlows registers n idle connections: endpoints that occupy demux
// table slots and endpoint slab bytes but move no traffic, so the active
// subset's lookups walk a table as large and cold as a production
// receiver's (the connscale axis). The population lives in the 172.16/12
// space — disjoint from the active 10.0.<n>.x flows and the churn port
// ranges, so no idle key can ever collide with a real one — and every key
// binds one shared placeholder endpoint: only the table's own structure
// and footprint matter, and a million per-key endpoints would add nothing
// but allocation noise. Idle flows are registered directly on the
// netstack, bypassing the machine's endpoint list, so the per-sweep
// timer scan stays proportional to the active population. The population
// registers as one batch (Stack.RegisterBatch), which builds the demux
// table shard by shard with exactly the effect of registering the keys
// one at a time in index order.
func (g *flowGen) seedIdleFlows(n int) error {
	m := g.top.machine
	rcfg := tcp.DefaultConfig()
	rcfg.LocalIP, rcfg.RemoteIP = ipv4.Addr{172, 16, 0, 2}, ipv4.Addr{172, 16, 0, 1}
	rcfg.LocalPort, rcfg.RemotePort = 8080, 1024
	dummy, err := tcp.New(rcfg, &m.Meter, &m.Params, m.Alloc, g.top.sim.Clock())
	if err != nil {
		return err
	}
	key := func(i int) netstack.FlowKey {
		// 60k ports per remote address, then advance the address.
		ipIdx := i / 60000
		return netstack.FlowKey{
			Src:     ipv4.Addr{172, byte(16 + ipIdx/256), byte(ipIdx % 256), 1},
			Dst:     ipv4.Addr{172, 16, 0, 2},
			SrcPort: uint16(1024 + i%60000),
			DstPort: 8080,
		}
	}
	if err := m.Stack.RegisterBatch(n, key, dummy); err != nil {
		return fmt.Errorf("sim: seeding idle flows: %w", err)
	}
	return nil
}

func (g *flowGen) open(n int, sPort, rPort uint16) error {
	top := g.top
	senderIP := ipv4.Addr{10, 0, byte(n), 1}
	rcvIP := ipv4.Addr{10, 0, byte(n), 2}

	if _, err := top.senders[n].AddStreamConn(senderIP, rcvIP, sPort, rPort); err != nil {
		return err
	}

	ep, slot, err := top.openReceiver(senderIP, rcvIP, sPort, rPort)
	if err != nil {
		return err
	}
	g.live = append(g.live, flowRecord{nicIdx: n, senderIP: senderIP, rcvIP: rcvIP,
		sPort: sPort, rPort: rPort, ep: ep, slot: slot})
	if g.onOpen != nil {
		g.onOpen(ep)
	}
	return nil
}

// applySkew assigns zipf-profiled rate caps to the live flows: the flow
// with global arrival rank r gets weight 1/(r+1)^FlowSkew, and each
// link's weights are scaled so its aggregate offered rate is
// skewOversubscribe times the line rate — every link stays saturated
// while individual flows differ by orders of magnitude, the heavy-hitter
// mix of production receivers. The ranking is global (the receiver's top
// talker lives on one link, the runner-up on another), so per-CPU load is
// genuinely skewed: a per-link ranking would repeat the same weight
// multiset on every link, and with the symmetric subnet addressing the
// round-robin indirection fill cancels it into perfectly balanced CPUs —
// an artifact no real traffic mix has.
func (g *flowGen) applySkew() {
	if g.cfg.FlowSkew <= 0 {
		return
	}
	const skewOversubscribe = 2.0
	links := len(g.perLink)
	for n := range g.perLink {
		if cap(g.perLink[n]) == 0 { // first growth: the link's share, which churn keeps
			g.perLink[n] = make([]rankedFlow, 0, (len(g.live)+links-1)/links)
		}
		g.perLink[n] = g.perLink[n][:0]
	}
	for rank, f := range g.live {
		g.perLink[f.nicIdx] = append(g.perLink[f.nicIdx],
			rankedFlow{sPort: f.sPort, w: math.Pow(float64(rank+1), -g.cfg.FlowSkew)})
	}
	for n, flows := range g.perLink {
		var sum float64
		for _, r := range flows {
			sum += r.w
		}
		for _, r := range flows {
			rate := skewOversubscribe * lineRateBps * r.w / sum
			g.top.senders[n].SetConnRate(r.sPort, rate)
		}
	}
}

// liveCount returns the number of live flows.
func (g *flowGen) liveCount() int { return len(g.live) }

// churnTimeWaitNs is the TIME_WAIT linger before the demux entry is
// reaped: 2·MSL scaled to simulation time (MSL here is a few ms — the
// 125 µs RTT world's analogue of the real 30 s).
const churnTimeWaitNs = 8_000_000

// churnForceTeardownNs is the backstop: a teardown whose FIN handshake
// has not completed by then (pathological loss) is torn down unilaterally
// so churn keeps making progress — the old fixed-grace behaviour.
const churnForceTeardownNs = 60_000_000

// drainingFlow is a torn-down flow waiting for its FIN handshake to
// complete; deadline is the force-teardown backstop.
type drainingFlow struct {
	rec      flowRecord
	deadline uint64
}

// teardownTracker advances the teardown state machines of every
// torn-down churn victim: receivers that have processed the FIN enter
// TIME_WAIT; expired TIME_WAIT entries are reaped — unregistering the
// demux entry — and the sender side is released; handshakes stuck past
// the backstop are forced down. One tracker per topology: the stack's reap sweep yields each
// reaped key exactly once.
type teardownTracker struct {
	top      *streamTopology
	draining []drainingFlow                  // FIN in flight, not yet closed
	inTW     map[netstack.FlowKey]flowRecord // lingering in TIME_WAIT

	// lingering holds the endpoint-list slots of released flows whose
	// receiver endpoint was not quiescent at release. retired and kept
	// count releases that retired the endpoint at once and those that
	// left it lingering.
	lingering     []int
	retired, kept uint64
}

func newTeardownTracker(top *streamTopology) *teardownTracker {
	return &teardownTracker{top: top, inTW: make(map[netstack.FlowKey]flowRecord)}
}

// add starts tracking a torn-down flow (its sender application has
// closed); deadline is the force-teardown backstop.
func (tr *teardownTracker) add(rec flowRecord, deadline uint64) {
	tr.draining = append(tr.draining, drainingFlow{rec: rec, deadline: deadline})
}

// poll advances the teardown state machines (called from the periodic
// sweep).
func (tr *teardownTracker) poll(now uint64) {
	ns := tr.top.machine.Stack
	keep := tr.draining[:0]
	for _, d := range tr.draining {
		switch {
		case d.rec.ep.Closed():
			if ns.EnterTimeWait(d.rec.senderIP, d.rec.rcvIP, d.rec.sPort, d.rec.rPort,
				now+churnTimeWaitNs) {
				tr.inTW[d.rec.key()] = d.rec
			} else {
				// The flow is no longer registered (force-released by an
				// earlier backstop, or torn down out from under us):
				// stranding it in inTW would leak the sender conn for the
				// rest of the run, since no reap would ever yield its key.
				// Release immediately.
				tr.release(d.rec)
			}
		case now >= d.deadline:
			tr.release(d.rec)
		default:
			keep = append(keep, d)
		}
	}
	tr.draining = keep
	for _, k := range ns.ReapTimeWait(now) {
		if rec, ok := tr.inTW[k]; ok {
			delete(tr.inTW, k)
			tr.release(rec)
		}
	}
	lingering := tr.lingering[:0]
	for _, slot := range tr.lingering {
		if !tr.top.machine.RetireEndpoint(slot) {
			lingering = append(lingering, slot)
		}
	}
	tr.lingering = lingering
}

// release drops everything still keyed on a finished flow — the demux
// entry (a no-op when the reap already removed it), the sender-side
// connection and the port pair (flowGen.recycle) — and retires its
// receiver endpoint for reuse by a later open. A receiver endpoint that is
// not quiescent yet — typically a delayed-ACK timer still armed — stays on
// the machine's timer list and retires at the first poll that finds it
// quiescent.
func (tr *teardownTracker) release(rec flowRecord) {
	tr.top.machine.UnregisterEndpoint(rec.senderIP, rec.rcvIP, rec.sPort, rec.rPort)
	tr.top.senders[rec.nicIdx].RemoveConn(rec.sPort)
	tr.top.gen.recycle(rec)
	if tr.top.machine.RetireEndpoint(rec.slot) {
		tr.retired++
		return
	}
	tr.kept++
	tr.lingering = append(tr.lingering, rec.slot)
}

// churner runs connection arrival/teardown churn: every interval the
// oldest flow's application closes, which triggers the full teardown
// handshake — the sender drains in-flight data, emits a FIN (consuming a
// sequence number), the receiver's final ACK costs receive-path cycles,
// and the receiver endpoint lingers in the stack's TIME_WAIT table before
// its demux entry is reaped. A fresh connection opens on the same link
// immediately, as real servers overlap accept with lingering TIME_WAITs.
type churner struct {
	top      *streamTopology
	gen      *flowGen
	tr       *teardownTracker
	interval uint64
	tornDown uint64
	// openFailures counts ticks whose replacement could not be opened
	// (port space and recycle pool both exhausted); the victim survives
	// such ticks so the population holds steady instead of bleeding
	// toward one flow.
	openFailures uint64
}

func newChurner(top *streamTopology, gen *flowGen, tr *teardownTracker, interval uint64) *churner {
	return &churner{top: top, gen: gen, tr: tr, interval: interval}
}

// fire is the churn tick: it opens a replacement and tears the oldest
// flow down, then reschedules itself. The replacement opens first: on
// port-space exhaustion the victim stays up and the failure is surfaced in
// the run report, where the old behaviour tore down regardless and long
// runs silently decayed toward a single flow.
func (ch *churner) fire() {
	g := ch.gen
	if g.liveCount() > 1 {
		victim := g.live[0]
		if err := g.openChurnFlow(victim.nicIdx); err != nil {
			ch.openFailures++
		} else {
			g.live = g.live[1:]
			ch.tornDown++
			// Application close on the sender: drain, then FIN.
			ch.top.senders[victim.nicIdx].FinishConn(victim.sPort)
			ch.tr.add(victim, ch.top.sim.Now()+churnForceTeardownNs)
			g.applySkew()
		}
	}
	ch.top.sim.After(ch.interval, ch)
}
