package sim

import (
	"repro/internal/netstack"
	"repro/internal/rss"
	"repro/internal/steer"
)

// steerController wires the steering policies (internal/steer) into a
// running stream experiment: it owns the rebalance epoch loop, routes
// socket-read observations into the aRFS policy, applies the resulting
// indirection rewrites and rule programs through the machine (which does
// the migration-safe handoff), and drives the app-CPU-migration workload.
type steerController struct {
	top *streamTopology
	cfg SteerConfig

	reb  *steer.Rebalancer
	arfs *steer.ARFS[netstack.FlowKey]

	prevBusy  []uint64
	prevLoads []uint64 // per bucket, summed over NICs

	// The epoch's observations, kept so a warm epoch allocates nothing:
	// util per CPU; loads (swapped with prevLoads each epoch)
	// and delta per bucket; owner, the indirection table the plan edits.
	util         []float64
	loads, delta []uint64
	owner        []int

	// epochFn, migrateFn and moveFn are epochTick, migrateTick and
	// applyMove, bound once; move is applyMove's argument.
	epochFn, migrateFn, moveFn func()
	move                       steer.Move

	moves         uint64
	appMigrations uint64
	migrateIdx    int

	// applying guards against re-entry: applying a steering change
	// flushes pending aggregates, whose synchronous delivery fires
	// OnSockRead again — without the guard a flow with a pending
	// aggregate would program its rule twice (nested call first, outer
	// call again), double-counting rule stats and repeating the handoff
	// work.
	applying bool
}

// newSteerController arms the steering policies cfg enables; cfg is
// resolved and validated, so EpochNs is set when the rebalancer is on.
func newSteerController(top *streamTopology, cfg SteerConfig) *steerController {
	sc := &steerController{top: top, cfg: cfg}
	sc.epochFn, sc.migrateFn, sc.moveFn = sc.epochTick, sc.migrateTick, sc.applyMove
	if cfg.Enabled {
		sc.reb = steer.NewRebalancer()
		sc.prevBusy = make([]uint64, top.machine.CPUs())
		sc.util = make([]float64, top.machine.CPUs())
		sc.prevLoads = make([]uint64, rss.Buckets)
		sc.loads = make([]uint64, rss.Buckets)
		sc.delta = make([]uint64, rss.Buckets)
		sc.owner = make([]int, rss.Buckets)
	}
	if cfg.ARFS {
		sc.arfs = steer.NewARFS[netstack.FlowKey]()
		sc.top.machine.Stack.OnSockRead = sc.onSockRead
		if cfg.AppMigrateIntervalNs > 0 {
			top.sim.After(cfg.AppMigrateIntervalNs, sc.migrateFn)
		}
	}
	// Armed after the migration tick: where the two periods coincide,
	// each instant's migration runs before its rebalance.
	if cfg.Enabled {
		top.sim.After(cfg.EpochNs, sc.epochFn)
	}
	return sc
}

// epochTick is one rebalance epoch: an evaluation, then the next epoch's
// event.
func (sc *steerController) epochTick() {
	sc.rebalance()
	sc.top.sim.After(sc.cfg.EpochNs, sc.epochFn)
}

// rebalance is an epoch's evaluation: it diffs per-CPU busy cycles and
// per-bucket frame counts against the previous epoch, plans moves, and
// applies each through the machine on the losing CPU's account.
// Every buffer it fills lives on the controller, so a warm epoch allocates
// nothing.
func (sc *steerController) rebalance() {
	top := sc.top
	epochCycles := top.machine.Params.ClockHz * float64(sc.cfg.EpochNs) / 1e9
	for c, cpu := range top.cpu.cpus {
		sc.util[c] = float64(cpu.busyCycles-sc.prevBusy[c]) / epochCycles
		sc.prevBusy[c] = cpu.busyCycles
	}

	clear(sc.loads)
	for _, n := range top.machine.NICs() {
		for b, f := range n.BucketFrames() {
			sc.loads[b] += f
		}
	}
	for b := range sc.loads {
		sc.delta[b] = sc.loads[b] - sc.prevLoads[b]
	}
	sc.prevLoads, sc.loads = sc.loads, sc.prevLoads

	sm := top.machine.SteerMap()
	for b := range sc.owner {
		sc.owner[b] = sm.Entry(b)
	}
	moves := sc.reb.Plan(sc.util, sc.delta, sc.owner)
	sc.applying = true
	for _, mv := range moves {
		sc.move = mv
		top.cpu.runOn(mv.From, sc.moveFn)
		sc.moves++
	}
	sc.applying = false
}

// applyMove applies the planned move sc.move through the machine.
func (sc *steerController) applyMove() { sc.top.machine.SteerBucket(sc.move.Bucket, sc.move.To) }

// onSockRead is the stack's socket-read observation: flow k's application
// consumed on appCPU. When the policy wants the flow re-steered — or the
// delivery arrived on a different CPU than the application's, meaning the
// flow's steering is missing or stale (rule evicted, bucket rebalanced
// away) — the machine programs the rule (draining pending aggregation
// state first; SteerFlow no-ops when the current owner already matches,
// so in-flight transients cost one table lookup). An evicted victim is
// forgotten so a later observation can re-program it.
func (sc *steerController) onSockRead(k netstack.FlowKey, hash uint32, appCPU, cpu int) {
	if sc.applying {
		return // delivery is a steering change's own flush: no re-entry
	}
	if !sc.arfs.Observe(k, appCPU) && cpu == appCPU {
		return
	}
	sc.applying = true
	evicted, err := sc.top.machine.SteerFlow(k, hash, appCPU)
	sc.applying = false
	if err != nil {
		return // no rule table on this hardware: policy stays software-only
	}
	if evicted != nil {
		sc.arfs.Forget(*evicted)
	}
}

// migrateTick re-pins one endpoint's application to the next CPU, round-
// robin over endpoints and CPUs — the scheduler moving application
// threads mid-stream. The next delivery's socket-read observation makes
// aRFS chase it.
func (sc *steerController) migrateTick() {
	// The machine's endpoint list keeps a slot for every flow ever
	// opened: a retired flow's slot is nil, and a torn-down flow that
	// could not be retired yet is unpinned at teardown. Scan for the
	// next live pinned application rather than wasting the tick on
	// either.
	eps := sc.top.machine.Endpoints()
	for tries := 0; tries < len(eps); tries++ {
		ep := eps[sc.migrateIdx%len(eps)]
		sc.migrateIdx++
		if ep == nil {
			continue
		}
		if cur := ep.AppCPU(); cur >= 0 {
			ep.SetAppCPU((cur + 1) % sc.top.machine.CPUs())
			sc.appMigrations++
			break
		}
	}
	sc.top.sim.After(sc.cfg.AppMigrateIntervalNs, sc.migrateFn)
}

// flowClosed drops per-flow policy state at teardown.
func (sc *steerController) flowClosed(k netstack.FlowKey) {
	if sc.arfs != nil {
		sc.arfs.Forget(k)
	}
}

// report assembles the run's steering summary.
func (sc *steerController) report() *SteerReport {
	r := &SteerReport{
		Moves:         sc.moves,
		AppMigrations: sc.appMigrations,
		Indirection:   sc.top.machine.SteerMap().Snapshot(),
	}
	if sc.reb != nil {
		s := sc.reb.Stats()
		r.Epochs = s.Epochs
		r.CalmEpochs = s.CalmEpochs
	}
	for _, n := range sc.top.machine.NICs() {
		s := n.FlowRuleStatsRef()
		r.RulesProgrammed += s.Programmed
		r.RuleEvictions += s.Evicted
		r.RuleHits += s.Hits
		r.RuleOccupancy += n.FlowRuleLen()
	}
	return r
}
