package sim

import "testing"

// TestLossRecoveryProperty is the loss-realism property test: uniform
// frame loss *combined with* link reordering — on the native and the
// paravirtual machine — must never corrupt the delivered stream. Every
// flow delivers the pattern byte-exact and in order, the
// resequencing-window accounting balances at every mid-burst checkpoint,
// and the sender scoreboards (rtx tiling, sacked-byte sums) balance at the
// same checkpoints via CheckAccounting.
func TestLossRecoveryProperty(t *testing.T) {
	for _, sys := range []SystemKind{SystemNativeUP, SystemXen} {
		t.Run(sys.String(), func(t *testing.T) { runLossPropertyCase(t, sys) })
	}
}

func runLossPropertyCase(t *testing.T, sys SystemKind) {
	cfg := DefaultStreamConfig(sys, OptFull)
	cfg.NICs = 2
	cfg.Connections = 8
	cfg.Queues = 2
	cfg.ReorderWindow = 4
	cfg.Reorder = ReorderConfig{OneIn: 16, Distance: 2}
	cfg.Loss = LossConfig{OneIn: 200, Seed: 5}
	cfg.SACK = true
	cfg.DurationNs = 20_000_000
	cfg.WarmupNs = 10_000_000
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-exact in-order verification of every flow's delivered stream.
	type verify struct {
		pos uint32
		bad int
	}
	states := make([]*verify, len(top.machine.Endpoints()))
	for i, ep := range top.machine.Endpoints() {
		v := &verify{pos: ep.RcvNxt()}
		states[i] = v
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

	// Checkpoint invariant: every sender connection's retransmission
	// bookkeeping must balance — the rtx list tiles [sndUna, sndNxt)
	// and sackedBytes equals the scoreboard sum.
	checkSenders := func(when string) {
		for i, sm := range top.senders {
			for j, c := range sm.conns {
				if msg := c.ep.CheckAccounting(); msg != "" {
					t.Errorf("%s: sender %d conn %d: %s", when, i, j, msg)
				}
			}
		}
	}

	// Mid-burst, repeatedly check the window and sender accounting while
	// recovery runs.
	m := top.machine
	checkpoints := 0
	var checkpoint eventFunc
	checkpoint = func() {
		checkpoints++
		agg := engineAggSum(m)
		if held := uint64(heldFramesOf(m.ReceivePaths())); agg.Held != agg.Stitched+agg.WindowTimeout+held {
			t.Errorf("window accounting broken at checkpoint %d: held=%d stitched=%d drained=%d parked=%d",
				checkpoints, agg.Held, agg.Stitched, agg.WindowTimeout, held)
		}
		checkSenders("mid-run")
		if top.sim.Now() < 18_000_000 {
			top.sim.After(400_000, checkpoint)
		}
	}
	top.sim.After(11_000_000, checkpoint)
	top.sim.RunUntil(cfg.WarmupNs + cfg.DurationNs)

	if checkpoints == 0 {
		t.Fatal("no checkpoint ever fired")
	}
	var lost, reordered uint64
	for _, l := range top.links {
		lost += l.Stats().Lost
		reordered += l.Stats().Reordered
	}
	if lost == 0 {
		t.Fatal("injector never dropped a frame: property is vacuous")
	}
	if reordered == 0 {
		t.Fatal("injector never displaced a frame: property is vacuous")
	}
	loss := senderLossStats(top.senders)
	if loss.FastRetransmits+loss.SACKRetransmits+loss.RTOs == 0 {
		t.Fatal("no recovery activity despite dropped frames")
	}
	checkSenders("end")

	for i := range states {
		if states[i].bad != 0 {
			t.Errorf("endpoint %d: %d bytes deviated from the in-order pattern", i, states[i].bad)
		}
		if states[i].pos == 1 {
			t.Errorf("endpoint %d delivered nothing", i)
		}
	}

	// After a final drain, every held frame is accounted for: loss must
	// not strand frames in resequencing windows (the wire-idle release
	// discipline).
	for _, rp := range m.ReceivePaths() {
		rp.Engine().FlushAll()
	}
	agg := engineAggSum(m)
	if agg.Held != agg.Stitched+agg.WindowTimeout {
		t.Errorf("held frames leaked: held=%d stitched=%d drained=%d",
			agg.Held, agg.Stitched, agg.WindowTimeout)
	}
	if got := heldFramesOf(m.ReceivePaths()); got != 0 {
		t.Errorf("%d frames still parked after full flush", got)
	}
}
