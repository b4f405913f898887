package sim

import (
	"repro/internal/netstack"
	"repro/internal/tcp"
)

// This file is the restart-storm workload: the production failure mode
// the TIME_WAIT subsystem exists for. A server process restarts; its
// clients all tear down and redial near-simultaneously, on the very same
// four-tuples, while hundreds of thousands of TIME_WAIT incarnations of
// the previous process still linger. The workload tears down half the
// live flows at one instant, seeds a configurable synthetic TIME_WAIT
// backlog (far larger populations than the port space admits live
// flows), and then redials every victim's four-tuple — exercising
// SYN-time port reuse when the stack allows it
// (StreamConfig.TimeWaitReuse) and the reap-then-redial path when it
// does not.

// StormReport summarizes a run's restart-storm activity.
type StormReport struct {
	// TornDown counts flows the storm closed; Reconnected counts
	// successful redials of the same four-tuple.
	TornDown, Reconnected uint64
	// Retries counts redial attempts that had to back off: the FIN
	// handshake was still draining, the entry was still lingering with
	// reuse disabled, or the reuse admissibility check refused.
	Retries uint64
	// OpenFailures counts redials that failed outright at open time.
	OpenFailures uint64
}

// staleEp snapshots an old incarnation's delivered-byte count at the
// moment its TIME_WAIT entry was recycled: any later growth would mean
// reuse delivered bytes to a stale endpoint.
type staleEp struct {
	ep    *tcp.Endpoint
	bytes uint64
}

// stormController fires and supervises one restart storm.
type stormController struct {
	top   *streamTopology
	cfg   RestartStormConfig
	reuse bool

	report   StormReport
	staleEps []staleEp
}

const (
	// stormReconnectDelayNs delays each victim's redial of its own
	// four-tuple: well inside the 8 ms TIME_WAIT linger, so the redial
	// collides with the lingering entry, and more than one timestamp tick
	// (1 ms) past teardown, so the RFC 6191 check can admit it.
	stormReconnectDelayNs = 2_000_000
	// stormRetryNs is the redial back-off after a refused or premature
	// attempt: one timestamp tick, so a retried redial carries a newer
	// timestamp than the attempt it repeats.
	stormRetryNs = 1_000_000
)

// newStormController supervises cfg's storm; cfg is resolved, so
// RestartStorm.PrefillSpreadNs is set.
func newStormController(top *streamTopology, cfg *StreamConfig) *stormController {
	return &stormController{top: top, cfg: cfg.RestartStorm, reuse: cfg.TimeWaitReuse}
}

// fire executes the storm: close the first half of the live flows
// (rounded down, so at least one survives its own storm) and schedule
// the redials (the backlog was seeded earlier; see prefill).
func (sc *stormController) fire() {
	top := sc.top
	g := top.gen

	n := g.liveCount() / 2
	if n == 0 {
		return
	}
	victims := append([]flowRecord(nil), g.live[:n]...)
	g.live = append(g.live[:0], g.live[n:]...)
	now := top.sim.Now()
	for i, v := range victims {
		v := v
		sc.report.TornDown++
		v.ep.SetAppCPU(-1)
		top.senders[v.nicIdx].FinishConn(v.sPort)
		top.teardown.add(v, now+churnForceTeardownNs)
		// Stagger the redials by a hair so they do not all land on one
		// sweep; every victim redials its very own four-tuple.
		delay := stormReconnectDelayNs + uint64(i)*1_000
		top.sim.After(delay, func() { sc.reconnect(v) })
	}
	g.applySkew()
}

// prefill seeds the synthetic TIME_WAIT backlog: distinct four-tuples
// outside the live address plan (172.16/12 sources). It runs early in
// the warm-up — the backlog is the residue of the restarted process's
// previous life, built up before the window under measurement — with
// deadlines spread uniformly over PrefillSpreadNs starting at the storm
// instant, so reaping is the steady trickle of a draining backlog
// rather than one spike. lastTS is the seeding instant: these
// incarnations were alive until just now.
func (sc *stormController) prefill() {
	if sc.cfg.PrefillTimeWait <= 0 {
		return
	}
	now := sc.top.sim.Now()
	ns := sc.top.machine.Stack
	lastTS := uint32(now / 1_000_000)
	base := sc.cfg.AtNs
	if base < now {
		base = now
	}
	n := sc.cfg.PrefillTimeWait
	for i := 0; i < n; i++ {
		k := netstack.FlowKey{
			Src:     [4]byte{172, 16 + byte(i>>16), byte(i >> 8), byte(i)},
			Dst:     [4]byte{10, 0, 0, 2},
			SrcPort: uint16(1024 + i%60000),
			DstPort: 80,
		}
		deadline := base + 1_000_000 +
			uint64(float64(i)/float64(n)*float64(sc.cfg.PrefillSpreadNs))
		ns.SeedTimeWait(k, deadline, lastTS, 1)
	}
}

// reconnect redials one victim's four-tuple. Three states are possible:
// the FIN handshake is still draining (back off), the tuple lingers in
// TIME_WAIT (attempt SYN-time reuse, or back off until the reap when
// reuse is disabled), or the tuple is free (open).
func (sc *stormController) reconnect(v flowRecord) {
	top := sc.top
	tr := top.teardown
	k := v.key()

	if tr.isDraining(k) {
		sc.retry(v)
		return
	}
	if rec, waiting := tr.waiting(k); waiting {
		if !sc.reuse {
			// tw_reuse off: nothing to do but wait out the 2·MSL linger.
			sc.retry(v)
			return
		}
		ns := top.machine.Stack
		newTS := uint32(top.sim.Now() / 1_000_000)
		const isn = 1 // every tcp endpoint starts its sequence at 1
		switch ns.ReuseTimeWait(v.senderIP, v.rcvIP, v.sPort, v.rPort, isn, newTS) {
		case netstack.ReuseRefused:
			sc.retry(v)
			return
		case netstack.ReuseGranted:
			// The lingering incarnation is recycled: record its
			// delivered-byte count (it must never grow again — reuse
			// must not deliver bytes to a stale endpoint) and release
			// the rest of its state exactly like a reap would.
			delete(tr.inTW, k)
			sc.staleEps = append(sc.staleEps, staleEp{ep: rec.ep, bytes: rec.ep.Stats().BytesToApp})
			tr.releaseWatched(rec)
		case netstack.ReuseNone:
			// The sweep reaped it between our check and the call;
			// the tuple is free.
		}
	}
	if err := top.gen.open(v.nicIdx, v.sPort, v.rPort); err != nil {
		sc.report.OpenFailures++
		return
	}
	sc.report.Reconnected++
	top.gen.applySkew()
}

// retry reschedules a redial.
func (sc *stormController) retry(v flowRecord) {
	sc.report.Retries++
	sc.top.sim.After(stormRetryNs, func() { sc.reconnect(v) })
}

// staleDeliveries returns the number of recycled incarnations whose
// endpoints received bytes after their entry was reused (always zero
// when reuse is safe; the property test asserts it).
func (sc *stormController) staleDeliveries() int {
	bad := 0
	for _, s := range sc.staleEps {
		if s.ep.Stats().BytesToApp != s.bytes {
			bad++
		}
	}
	return bad
}
