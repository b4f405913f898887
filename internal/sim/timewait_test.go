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

// TestTimeWaitChurnProperty is the TIME_WAIT property test on a stream
// run, on the native and the paravirtual machine: through 1 ms churn,
//
//   - the table accounting balances at every 2 ms checkpoint
//     (Entered = Reaped + Len, and no entry leaves the table any other
//     way), and
//   - every byte every endpoint delivers is the in-order pattern stream,
//     byte-exact through teardown and through endpoints that a later open
//     reuses.
func TestTimeWaitChurnProperty(t *testing.T) {
	for _, sys := range []SystemKind{SystemNativeUP, SystemXen} {
		t.Run(sys.String(), func(t *testing.T) { runChurnProperty(t, sys) })
	}
}

func runChurnProperty(t *testing.T, sys SystemKind) {
	cfg := DefaultStreamConfig(sys, OptFull)
	cfg.NICs = 2
	cfg.Connections = 24
	cfg.Queues = 2
	cfg.ChurnIntervalNs = 1_000_000
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-exact in-order verification of every open: each open, a
	// reused endpoint's included, gets a fresh sink before any byte flows.
	type verify struct {
		start, pos uint32
		bad        int
	}
	var opens []*verify
	attach := func(ep *tcp.Endpoint) {
		// The pattern is keyed on absolute sequence numbers: the
		// endpoint's initial RCV.NXT is its first payload byte.
		v := &verify{start: ep.RcvNxt(), pos: ep.RcvNxt()}
		opens = append(opens, v)
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
	top.gen.onOpen = attach

	ns := top.machine.Stack
	end := cfg.WarmupNs + cfg.DurationNs
	for now := uint64(2_000_000); now <= end; now += 2_000_000 {
		top.sim.RunUntil(now)
		st := ns.TimeWaitStats()
		if st.Entered != st.Reaped+uint64(st.Len) || st.Reused != 0 || st.ReuseRefused != 0 || st.Evicted != 0 {
			t.Fatalf("at %dns: TIME_WAIT accounting broken: %+v", now, st)
		}
	}

	if st := ns.TimeWaitStats(); st.Entered == 0 || st.Reaped == 0 {
		t.Fatalf("churn never cycled an entry through TIME_WAIT: %+v", st)
	}
	moved := 0
	for i, v := range opens {
		if v.bad != 0 {
			t.Errorf("open %d: %d bytes deviated from the in-order pattern", i, v.bad)
		}
		if v.pos != v.start {
			moved++
		}
	}
	// Replacement flows must have moved data, not just the initial ones.
	if moved <= cfg.Connections {
		t.Errorf("only %d of %d opens delivered bytes; replacements idle?", moved, len(opens))
	}
}
