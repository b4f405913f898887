package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/buf"
	"repro/internal/nic"
)

// parSched is the parallel intra-run scheduler: per-CPU and per-link event
// lanes with a deterministic epoch merge.
//
// The serial simulator runs every event — wire serialization, ring DMA,
// softirq rounds, TCP processing — from one heap on one OS thread. But the
// topology is almost embarrassingly parallel: each link (sender + wire +
// NIC classify/steer) only talks to the receiver through per-queue ring
// pushes, and each softirq CPU (driver poll, aggregation, stack, endpoint,
// ACK transmit) owns its queues, its flows and its meter shard outright.
// parSched exploits that: events are partitioned onto one Sim per link and
// one Sim per CPU, lanes run concurrently inside a bounded window, and
// every cross-lane effect is either recorded into a per-queue command
// stream (forward direction: nic.Recording) or captured into a per-lane
// mailbox (reverse direction: ACKs leaving through a lane's transmit
// driver) and committed in canonical serial order at the window barrier.
// The merged schedule — and therefore every counter, every charged cycle
// and every golden metric — is bit-identical to the serial run; only
// wall-clock time changes. See ARCHITECTURE.md, "Parallel scheduler".
//
// Window invariants:
//
//   - A window [T, E) ends no later than the earliest global event (so
//     barrier-context work like timer sweeps always sees fully synced
//     lanes) and no later than T + min link delay (so a mailbox commit can
//     never land inside a window that already ran: arrival = captureAt +
//     extra + DelayNs ≥ T + DelayNs ≥ E).
//   - Link lanes run first (phase A), recording per-queue ring commands.
//     A link that cannot prove ring headroom on its own (RxNearFullShadow
//     can only overestimate occupancy) requeues the transmit at its
//     original key and stalls; the earliest stall time caps the window's
//     merge horizon H.
//   - CPU lanes run second (phase B) up to H, merging their own events
//     with the recorded command streams on (at, schedAt) — commands win
//     ties because serially the ring push was inline in the link event
//     the command stands in for.
//   - At the barrier, mailboxes are committed in (arrival, captureAt,
//     lane, capture order) order, then the merged instant H itself is
//     drained serially across all heaps and command streams in canonical
//     key order with exact ring checks (stall hooks off) — this is where
//     a stalled transmit re-runs against fully merged state.
type parSched struct {
	global    *Sim
	linkLanes []*Sim
	cpuLanes  []*Sim
	links     []*Link
	nics      []*nic.NIC
	cs        *cpuSet
	machine   *NativeMachine

	// minDelayNs is the smallest one-way link delay: the commit horizon
	// that bounds every window.
	minDelayNs uint64

	// phaseA/phaseB mark which worker fleet is live; the link stall hooks
	// and transmit hooks branch on them. Written only while all workers
	// are joined, read from workers — the goroutine launch/join edges
	// order the accesses.
	phaseA, phaseB bool

	// barrierNow is the merged instant during the serial barrier and the
	// window floor during phases; kicks arriving from global events use it
	// as the scheduling time.
	barrierNow uint64

	// stallAt[i] is link lane i's phase-A outcome: the window end, or the
	// virtual time of a transmit it could not prove safe.
	stallAt []uint64
	stalled []bool

	// mailboxes[q] collects CPU lane q's captured reverse transmissions in
	// capture order.
	mailboxes [][]txCapture
	commits   []txCommit // barrier scratch, reused across windows

	// applyFns[n][q] applies one recorded command of NIC n, queue q
	// (pre-bound so the merge loops allocate nothing per command).
	applyFns [][]func()

	// pools are every lane's frame-buffer pool (CPU lanes, then link lanes
	// in attach order) and spare the machine's, which holds the surplus
	// between barriers; buf.Rebalance evens them out at each barrier.
	pools []*buf.Pool
	spare *buf.Pool

	// useWorkers selects goroutine fan-out for the phases. On a
	// single-CPU host goroutines cannot overlap, so lanes run inline in
	// phase order instead — the schedule and results are identical either
	// way (phases are logically sequential; lane order within a phase is
	// immaterial because lanes share no state until the barrier). A -race
	// build forces workers on so the detector sees the real goroutine
	// boundaries.
	useWorkers bool
}

// txCapture is one reverse frame captured during phase B: a transmit that
// serially would have gone straight onto its link.
type txCapture struct {
	nic   int
	frame nic.Frame
	at    uint64 // lane virtual time of the transmit
	extra uint64 // in-round latency already accrued at capture
}

// txCommit is a capture joined with its commit ordering key.
type txCommit struct {
	txCapture
	arrival uint64
	srcLane int
	srcIdx  int
}

// newParSched builds the lane Sims (the executor is wired to the machine
// and links as buildStream constructs them).
func newParSched(global *Sim, nics, cpus int) *parSched {
	p := &parSched{
		global:     global,
		useWorkers: runtime.GOMAXPROCS(0) > 1 || parForceWorkers,
	}
	for i := 0; i < nics; i++ {
		p.linkLanes = append(p.linkLanes, NewSim())
	}
	for q := 0; q < cpus; q++ {
		p.cpuLanes = append(p.cpuLanes, NewSim())
	}
	p.links = make([]*Link, nics)
	p.nics = make([]*nic.NIC, nics)
	p.stallAt = make([]uint64, nics)
	p.stalled = make([]bool, nics)
	p.mailboxes = make([][]txCapture, cpus)
	return p
}

// bind wires the executor to the built machine and CPU scheduler: lane
// meters, per-CPU transmit-driver hooks, and command-apply closures.
func (p *parSched) bind(m *NativeMachine, cs *cpuSet) {
	p.machine = m
	p.cs = cs
	cs.lanes = p.cpuLanes
	cs.laneMeters = m.laneMeters
	cs.par = p

	p.spare = m.Alloc.Pool()
	for _, a := range m.laneAllocs {
		p.pools = append(p.pools, a.Pool())
	}
	p.applyFns = make([][]func(), len(p.nics))
	for ni := range p.nics {
		p.applyFns[ni] = make([]func(), len(p.cpuLanes))
	}
	for cpu := range p.cpuLanes {
		for ni := range m.nics {
			m.laneTx[cpu][ni].TxFrame = p.txHook(cpu, ni)
			// The receive drivers' transmit side is unreachable in
			// parallel mode (every endpoint is rebound to its lane's
			// transmitters), but hook it anyway so no path can slip
			// through to nic.Transmit with unkeyed timing.
			m.drvs[ni][cpu].TxFrame = p.txHook(cpu, ni)
		}
	}
}

// attachLink wires link i (already constructed on lane i) into the
// executor: recording mode on its NIC, the stall hook, and the command
// apply closures for its queues.
func (p *parSched) attachLink(i int, l *Link) {
	p.links[i] = l
	n := l.dst
	p.nics[i] = n
	lane := p.linkLanes[i]
	n.EnableRecording(func() (uint64, uint64) {
		schedAt, _ := lane.CurKey()
		return lane.Now(), schedAt
	})
	l.onStall = func() bool {
		if !p.phaseA {
			return false
		}
		if !n.RxNearFullShadow(l.RingHeadroom) {
			return false
		}
		p.stalled[i] = true
		return true
	}
	for q := range p.cpuLanes {
		ni, qq := i, q
		alloc := p.machine.laneAlloc(qq)
		p.applyFns[i][q] = func() {
			// A frame the full ring rejects dies on the applying lane.
			if f, dropped := p.nics[ni].RecApply(qq); dropped && f.Pooled {
				alloc.Release(f.Data)
			}
		}
	}
	p.pools = append(p.pools, l.sender.alloc.Pool())
	if p.minDelayNs == 0 || l.DelayNs < p.minDelayNs {
		p.minDelayNs = l.DelayNs
	}
}

// txHook intercepts frames leaving through CPU cpu's transmit driver for
// NIC ni. During phase B the frame is captured into the lane mailbox; in
// barrier context it is delivered directly with the merged instant as its
// timestamp — both produce exactly the event the serial nicReverse hook
// would have scheduled.
func (p *parSched) txHook(cpu, ni int) func(nic.Frame) {
	lane := p.cpuLanes[cpu]
	return func(f nic.Frame) {
		if p.phaseB {
			p.mailboxes[cpu] = append(p.mailboxes[cpu], txCapture{
				nic:   ni,
				frame: f,
				at:    lane.Now(),
				extra: p.cs.inRoundLatencyOn(cpu),
			})
			return
		}
		p.nics[ni].CountTxFrame()
		p.links[ni].DeliverReverseAt(f, p.barrierNow, p.cs.inRoundLatencyOn(cpu))
	}
}

// run advances the simulation to virtual time `until`, window by window.
func (p *parSched) run(until uint64) {
	for p.global.Now() < until {
		t := p.global.Now()
		e := until
		if g, ok := p.global.NextAt(); ok && g < e {
			e = g
		}
		if c := t + p.minDelayNs; c < e {
			e = c
		}

		h := e
		if e > t {
			// Phase A: link lanes concurrently, stall-capped.
			p.phaseA = true
			if p.useWorkers {
				var wg sync.WaitGroup
				for i := range p.linkLanes {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						p.stallAt[i] = p.runLinkLane(i, e)
					}(i)
				}
				wg.Wait()
			} else {
				for i := range p.linkLanes {
					p.stallAt[i] = p.runLinkLane(i, e)
				}
			}
			p.phaseA = false
			for _, s := range p.stallAt {
				if s < h {
					h = s
				}
			}

			// Phase B: CPU lanes concurrently, merging recorded commands,
			// up to the horizon every link got to.
			if h > t {
				p.phaseB = true
				if p.useWorkers {
					var wg sync.WaitGroup
					for q := range p.cpuLanes {
						wg.Add(1)
						go func(q int) {
							defer wg.Done()
							p.runCPULane(q, h)
						}(q)
					}
					wg.Wait()
				} else {
					for q := range p.cpuLanes {
						p.runCPULane(q, h)
					}
				}
				p.phaseB = false
			}
		}

		// Barrier: commit cross-lane effects, sync lane clocks that are
		// behind the merged instant, then drain the instant serially.
		p.barrierNow = h
		p.commitMailboxes()
		p.syncClocks(h)
		p.mergedRunAt(h)
		p.global.SetNow(h)
		buf.Rebalance(p.spare, p.pools)
	}
}

// runLinkLane runs lane i's events with at < limit, halting early if the
// link stalls on unprovable ring headroom. Returns the horizon reached.
func (p *parSched) runLinkLane(i int, limit uint64) uint64 {
	lane := p.linkLanes[i]
	p.stalled[i] = false
	for {
		at, ok := lane.NextAt()
		if !ok || at >= limit {
			return limit
		}
		ev, _ := lane.PopNext()
		lane.RunEvent(ev)
		if p.stalled[i] {
			// The stalled transmit requeued itself at this key; the
			// merged barrier at `at` re-runs it with exact state.
			return at
		}
	}
}

// runCPULane runs lane q's events merged with its recorded ring commands,
// both capped at limit, in (at, schedAt) order with commands first on
// ties (serially the push was inline in the producing link event, which
// by the tie has already run).
func (p *parSched) runCPULane(q int, limit uint64) {
	lane := p.cpuLanes[q]
	for {
		eAt, eSched, eOK := lane.PeekKey()
		cAt, cSched, cNic, cOK := p.peekCmd(q)
		useCmd := cOK && (!eOK || cAt < eAt || (cAt == eAt && cSched <= eSched))
		if useCmd {
			if cAt >= limit {
				return
			}
			p.applyCmd(q, cNic, cAt, cSched)
			continue
		}
		if !eOK || eAt >= limit {
			return
		}
		ev, _ := lane.PopNext()
		lane.RunEvent(ev)
	}
}

// peekCmd returns the key of queue q's earliest unapplied command across
// all NICs (ties: lowest NIC index, the canonical device order).
func (p *parSched) peekCmd(q int) (at, schedAt uint64, nicIdx int, ok bool) {
	for i, n := range p.nics {
		a, s, o := n.RecPeek(q)
		if !o {
			continue
		}
		if !ok || a < at || (a == at && s < schedAt) {
			at, schedAt, nicIdx, ok = a, s, i, true
		}
	}
	return
}

// applyCmd applies NIC nicIdx / queue q's next command as a pseudo-event
// on lane q: the lane clock and current key take the command's recorded
// position, so interrupts and rounds it triggers are keyed exactly as the
// serial inline push would have keyed them.
func (p *parSched) applyCmd(q, nicIdx int, at, schedAt uint64) {
	lane := p.cpuLanes[q]
	lane.seq++
	lane.RunEvent(event{at: at, schedAt: schedAt, seq: lane.seq, fn: p.applyFns[nicIdx][q]})
}

// commitMailboxes replays every captured reverse transmission in the
// canonical order (arrival time, capture time, source lane, capture
// order) — the serial schedule's order for the same frames.
func (p *parSched) commitMailboxes() {
	p.commits = p.commits[:0]
	for cpu := range p.mailboxes {
		for i, c := range p.mailboxes[cpu] {
			p.commits = append(p.commits, txCommit{
				txCapture: c,
				arrival:   c.at + c.extra + p.links[c.nic].DelayNs,
				srcLane:   cpu,
				srcIdx:    i,
			})
		}
		p.mailboxes[cpu] = p.mailboxes[cpu][:0]
	}
	if len(p.commits) == 0 {
		return
	}
	sort.Slice(p.commits, func(i, j int) bool {
		a, b := &p.commits[i], &p.commits[j]
		if a.arrival != b.arrival {
			return a.arrival < b.arrival
		}
		if a.at != b.at {
			return a.at < b.at
		}
		if a.srcLane != b.srcLane {
			return a.srcLane < b.srcLane
		}
		return a.srcIdx < b.srcIdx
	})
	for i := range p.commits {
		c := &p.commits[i]
		p.nics[c.nic].CountTxFrame()
		p.links[c.nic].DeliverReverseAt(c.frame, c.at, c.extra)
	}
}

// syncClocks advances every lane clock that is behind t (lanes that ran
// ahead — links past a stall horizon — are left alone; nothing at the
// barrier touches them except explicitly keyed scheduling).
func (p *parSched) syncClocks(t uint64) {
	for _, lane := range p.cpuLanes {
		if lane.Now() < t {
			lane.SetNow(t)
		}
	}
	for _, lane := range p.linkLanes {
		if lane.Now() < t {
			lane.SetNow(t)
		}
	}
}

// mergedRunAt serially drains every event and command with at == h across
// the global heap, all lanes and all command streams, in canonical key
// order: (at, schedAt), commands before events on full-key ties, then
// device/lane ordinal. Global events run here and only here, with every
// lane behind h already synced — barrier work (timer sweeps, churn,
// storms) sees exactly the serial machine state.
func (p *parSched) mergedRunAt(h uint64) {
	const (
		classCmd   = 0
		classEvent = 1
	)
	for {
		var pick mergePick
		if at, schedAt, ok := p.global.PeekKey(); ok {
			pick.consider(at, schedAt, classEvent, 0, p.global, -1, -1)
		}
		for qi, lane := range p.cpuLanes {
			if at, schedAt, ok := lane.PeekKey(); ok {
				pick.consider(at, schedAt, classEvent, 1+qi, lane, -1, -1)
			}
		}
		for li, lane := range p.linkLanes {
			if at, schedAt, ok := lane.PeekKey(); ok {
				pick.consider(at, schedAt, classEvent, 1+len(p.cpuLanes)+li, lane, -1, -1)
			}
		}
		for ni, n := range p.nics {
			for q := range p.cpuLanes {
				if at, schedAt, ok := n.RecPeek(q); ok {
					pick.consider(at, schedAt, classCmd, ni*len(p.cpuLanes)+q, nil, ni, q)
				}
			}
		}

		if !pick.found || pick.at > h {
			return
		}
		if pick.at < h {
			panic(fmt.Sprintf("sim: merged barrier at %d found stale work at %d", h, pick.at))
		}
		if pick.class == classCmd {
			p.applyCmd(pick.q, pick.nic, pick.at, pick.schedAt)
			continue
		}
		ev, _ := pick.lane.PopNext()
		pick.lane.RunEvent(ev)
	}
}

// mergePick tracks the minimum merge key seen while scanning all event
// sources at the barrier (a struct method rather than a closure so the
// scan allocates nothing).
type mergePick struct {
	at, schedAt uint64
	class, ord  int
	lane        *Sim
	nic, q      int
	found       bool
}

func (b *mergePick) consider(at, schedAt uint64, class, ord int, lane *Sim, ni, q int) {
	if b.found {
		if at != b.at {
			if at > b.at {
				return
			}
		} else if schedAt != b.schedAt {
			if schedAt > b.schedAt {
				return
			}
		} else if class != b.class {
			if class > b.class {
				return
			}
		} else if ord >= b.ord {
			return
		}
	}
	b.at, b.schedAt, b.class, b.ord = at, schedAt, class, ord
	b.lane, b.nic, b.q = lane, ni, q
	b.found = true
}
