package sim

import (
	"testing"

	"repro/internal/tcp"
)

// TestBackstopReleasedFlowDoesNotStrandInTW is the regression test for
// the teardown-tracker leak: a flow whose demux entry is already gone
// when its FIN completes (force-released by the backstop, or torn down
// out from under the tracker) used to land in inTW anyway — and since
// EnterTimeWait had refused it, no reap would ever yield its key, so the
// sender-side connection leaked for the rest of the run. The tracker must honor EnterTimeWait's verdict and
// release immediately.
func TestBackstopReleasedFlowDoesNotStrandInTW(t *testing.T) {
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.NICs = 1
	cfg.Connections = 2
	cfg.Queues = 1
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTeardownTracker(top)

	// Establish the flows, then close one sender application and run the
	// FIN handshake to completion so the receiver endpoint reports
	// Closed.
	top.sim.RunUntil(5_000_000)
	victim := top.gen.live[0]
	top.gen.live = top.gen.live[1:]
	top.senders[victim.nicIdx].FinishConn(victim.sPort)
	for pass := 0; !victim.ep.Closed() && pass < 20; pass++ {
		top.sim.RunUntil(top.sim.Now() + 5_000_000)
	}
	if !victim.ep.Closed() {
		t.Fatal("FIN handshake never completed")
	}

	// The backstop path fired earlier: the flow was force-released (its
	// demux entry unregistered, sender conn dropped).
	tr.release(victim)
	if top.machine.Stack.FlowTable().Peek(victim.key()) != nil {
		t.Fatal("release left the demux entry registered")
	}

	// The late poll sees the closed endpoint. Before the fix it stranded
	// the record in inTW forever; now EnterTimeWait's refusal must make
	// the tracker release it on the spot.
	tr.add(victim, top.sim.Now()+churnForceTeardownNs)
	tr.poll(top.sim.Now())
	if len(tr.draining) != 0 {
		t.Errorf("flow still draining after poll")
	}
	if len(tr.inTW) != 0 {
		t.Errorf("backstop-released flow stranded in inTW: %d entries", len(tr.inTW))
	}
	if got := top.machine.Stack.TimeWaitStats().Len; got != 0 {
		t.Errorf("TIME_WAIT table has %d entries for an unregistered flow", got)
	}
	// No sender-side leak: the conn is gone from the round-robin scan.
	if n := len(top.senders[victim.nicIdx].conns); n != 1 {
		t.Errorf("sender still scans %d conns, want 1", n)
	}
}

// TestChurnPortExhaustionKeepsPopulation: when the churn replacement
// cannot open (port space exhausted, nothing recycled yet), the victim
// must survive the tick — the population holds steady and the failure is
// surfaced — instead of silently bleeding toward one flow.
func TestChurnPortExhaustionKeepsPopulation(t *testing.T) {
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.NICs = 1
	cfg.Connections = 4
	cfg.ChurnIntervalNs = 1_000_000
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the linear churn range artificially; the recycle pool is
	// empty until the first TIME_WAIT reap returns a pair.
	top.gen.churnPort = 1 << 20
	top.sim.RunUntil(10_000_000)
	if got := top.gen.liveCount(); got != 4 {
		t.Errorf("population decayed to %d flows under port exhaustion, want 4", got)
	}
	if top.churn.openFailures == 0 {
		t.Error("exhaustion never surfaced in openFailures")
	}
	if top.churn.tornDown != 0 {
		t.Errorf("%d victims torn down with no replacement available", top.churn.tornDown)
	}
}

// TestChurnRecyclesReapedPorts: once TIME_WAIT reaps return port pairs
// to the pool, an exhausted churn range keeps churning on recycled
// pairs.
func TestChurnRecyclesReapedPorts(t *testing.T) {
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.NICs = 1
	cfg.Connections = 4
	cfg.ChurnIntervalNs = 1_000_000
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Let a few churn teardowns complete their FIN → TIME_WAIT → reap
	// cycle so the pool fills, then exhaust the linear range.
	top.sim.RunUntil(40_000_000)
	if len(top.gen.recycled) == 0 {
		t.Fatal("no port pair was ever recycled out of TIME_WAIT")
	}
	top.gen.churnPort = 1 << 20
	before := top.churn.tornDown
	top.sim.RunUntil(60_000_000)
	if top.churn.tornDown == before {
		t.Error("churn stalled despite recycled port pairs")
	}
}

// TestTimeWaitStormProperty is the TIME_WAIT-at-scale property test, on
// the native and the paravirtual machine: through a restart storm with a
// seeded backlog and SYN-time reuse,
//
//   - the table accounting balances at every sweep
//     (Entered = Reaped + Reused + Len; with reuse disabled this is the
//     issue's Entered = Reaped + Len),
//   - reuse never delivers bytes to a stale endpoint, and
//   - every byte every live endpoint delivers is the in-order pattern
//     stream (byte-exact through teardown and reuse).
func TestTimeWaitStormProperty(t *testing.T) {
	for _, sys := range []SystemKind{SystemNativeUP, SystemXen} {
		t.Run(sys.String(), func(t *testing.T) { runStormProperty(t, sys) })
	}
}

func runStormProperty(t *testing.T, sys SystemKind) {
	cfg := DefaultStreamConfig(sys, OptFull)
	cfg.NICs = 2
	cfg.Connections = 24
	cfg.Queues = 2
	cfg.TimeWaitReuse = true
	cfg.RestartStorm = RestartStormConfig{
		AtNs:            12_000_000,
		PrefillTimeWait: 5_000,
		PrefillSpreadNs: 20_000_000,
	}
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-exact in-order verification on every endpoint ever registered
	// (reconnected incarnations attach as they open).
	type verify struct {
		pos uint32
		bad int
	}
	states := make(map[*tcp.Endpoint]*verify)
	attach := func(ep *tcp.Endpoint) {
		if _, ok := states[ep]; ok {
			return
		}
		// The pattern is keyed on absolute sequence numbers: the
		// endpoint's initial RCV.NXT is its first payload byte.
		v := &verify{pos: ep.RcvNxt()}
		states[ep] = v
		ep.AppSink = func(b []byte) {
			want := make([]byte, len(b))
			PatternPayload(v.pos, want)
			for j := range b {
				if b[j] != want[j] {
					v.bad++
				}
			}
			v.pos += uint32(len(b))
		}
	}
	for _, ep := range top.machine.Endpoints() {
		attach(ep)
	}
	top.gen.onOpen = attach // reconnects get their sink before any byte flows

	ns := top.machine.Stack
	end := cfg.WarmupNs + cfg.DurationNs
	for now := uint64(2_000_000); now <= end; now += 2_000_000 {
		top.sim.RunUntil(now)
		st := ns.TimeWaitStats()
		if st.Entered != st.Reaped+st.Reused+uint64(st.Len) {
			t.Fatalf("at %dns: TIME_WAIT accounting broken: %+v", now, st)
		}
	}

	st := ns.TimeWaitStats()
	if st.Peak < cfg.RestartStorm.PrefillTimeWait {
		t.Errorf("peak %d below the seeded backlog %d", st.Peak, cfg.RestartStorm.PrefillTimeWait)
	}
	if st.Reused == 0 {
		t.Error("SYN-time reuse never granted during the storm")
	}
	report := top.storm.report
	if report.TornDown == 0 || report.Reconnected == 0 {
		t.Fatalf("storm did not run: %+v", report)
	}
	if report.Reconnected != report.TornDown {
		t.Errorf("only %d of %d victims reconnected", report.Reconnected, report.TornDown)
	}
	if bad := top.storm.staleDeliveries(); bad != 0 {
		t.Errorf("%d recycled incarnations received bytes after reuse", bad)
	}
	for ep, v := range states {
		if v.bad != 0 {
			t.Errorf("endpoint %p: %d bytes deviated from the in-order pattern", ep, v.bad)
		}
	}
	// Reconnected incarnations must have moved data.
	moved := 0
	for ep := range states {
		if ep.Stats().BytesToApp > 0 {
			moved++
		}
	}
	if moved <= cfg.Connections {
		t.Errorf("only %d endpoints delivered bytes; reconnects idle?", moved)
	}
}
