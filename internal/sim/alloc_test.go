package sim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/nic"
)

// faultsChurnConfig is the loss, reorder-window and churn shape: SACK-bearing
// ACKs, held frames and a re-skew every churn tick.
func faultsChurnConfig() StreamConfig {
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.NICs, cfg.Connections, cfg.FlowSkew = 4, 80, 1.1
	cfg.Loss = LossConfig{OneIn: 100, Seed: 1}
	cfg.SACK = true
	cfg.Reorder = ReorderConfig{OneIn: 50, Distance: 1}
	cfg.ReorderWindow = 4
	cfg.ChurnIntervalNs = 2_000_000
	return cfg
}

// rpcIncastConfig is the closed-loop incast shape: 64 connections, 256-byte
// responses, one completion poll every 50 µs.
func rpcIncastConfig() StreamConfig {
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.NICs, cfg.Connections = 1, 64
	cfg.RPC = RPCConfig{Enabled: true, MessageBytes: 256}
	return cfg
}

// xen2QConfig is the paravirtual shape of the xen/2q golden: two queues,
// I/O channels and guest vCPUs carrying 16 connections.
func xen2QConfig() StreamConfig {
	cfg := DefaultStreamConfig(SystemXen, OptFull)
	cfg.Queues, cfg.Connections = 2, 16
	return cfg
}

// TestSteadyStateAllocsPerFrame runs each shape with two measured windows
// and divides the extra mallocs by the extra frames: set-up and warm-up
// are identical in both runs and cancel, leaving what the steady state
// pays per frame. A closure built per recurring event, or a slice
// rebuilt per SACK-bearing ACK or per held frame, exceeds the budget.
//
// The budgets sit above what the steady state still pays on purpose.
// faults-churn opens a connection every 2 ms. Opens reuse retired
// endpoints, sender conns and TIME_WAIT entries, but this early in a run
// the reused slices still grow and shards see their first flow; it
// measures about 0.031 (0.052 without recycling, TestChurnCycleAllocs
// pins the recycling itself). rpc-incast measures under 0.001, and
// xen-2q, through the bridge, netback, grant copy and netfront, 0.0010
// to 0.0015 over repeated runs. With a
// closure per recurring event and per-frame SACK, window and re-skew
// slices, the same windows measure 0.20 and 0.11.
func TestSteadyStateAllocsPerFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six streams")
	}
	for _, tc := range []struct {
		name   string
		cfg    StreamConfig
		budget float64
	}{
		{"faults-churn", faultsChurnConfig(), 0.04},
		{"rpc-incast", rpcIncastConfig(), 0.005},
		{"xen-2q", xen2QConfig(), 0.005},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(durationNs uint64) (mallocs, frames uint64) {
				cfg := tc.cfg
				cfg.WarmupNs, cfg.DurationNs = 20_000_000, durationNs
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				res, err := RunStream(cfg)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.Mallocs - before.Mallocs, res.Frames
			}
			m1, f1 := run(20_000_000)
			m2, f2 := run(60_000_000)
			if f2 <= f1 {
				t.Fatalf("frames did not grow with the window: %d then %d", f1, f2)
			}
			perFrame := (float64(m2) - float64(m1)) / float64(f2-f1)
			t.Logf("%.4f extra mallocs per extra frame (%d frames, then %d)", perFrame, f1, f2)
			if perFrame > tc.budget {
				t.Errorf("steady state pays %.4f mallocs per frame, budget %.3f", perFrame, tc.budget)
			}
		})
	}
}

// allocsOver returns the mallocs of n calls of f, after n warm-up calls.
// It is a total, not testing.AllocsPerRun's truncated mean, so storage
// that is lost and regrown every few calls (a queue popped by reslicing
// its front) still shows.
func allocsOver(n int, f func()) float64 {
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			f()
		}
	})
}

// TestEventLoopAllocFree pins the event queue: once its storage has
// grown, scheduling pre-bound events and running them allocates nothing.
func TestEventLoopAllocFree(t *testing.T) {
	s := NewSim()
	fired := 0
	fn := eventFunc(func() { fired++ })
	cycle := func() {
		for i := uint64(0); i < 16; i++ {
			s.After(i%5, fn)
		}
		s.RunUntil(s.Now() + 10)
	}
	cycle()
	if n := allocsOver(1000, cycle); n != 0 {
		t.Errorf("After+RunUntil allocates %v times in 1000 cycles", n)
	}
	if fired != 16*2001 {
		t.Errorf("fired %d events, want %d", fired, 16*2001)
	}
}

// clockSink keeps Clock's result on the heap, as an endpoint does.
var clockSink func() uint64

// TestSimClockBoundOnce: Clock hands every endpoint the same function.
func TestSimClockBoundOnce(t *testing.T) {
	s := NewSim()
	if n := allocsOver(100, func() { clockSink = s.Clock() }); n != 0 {
		t.Errorf("Clock allocates %v times in 100 calls", n)
	}
	s.RunUntil(42)
	if got := s.Clock()(); got != 42 {
		t.Errorf("Clock() = %d, want 42", got)
	}
}

// TestSenderFIFOAllocFree pins the sender's control-frame queue: frames
// pushed by the retransmit and ACK paths and popped by NextFrame reuse the
// queue's storage.
func TestSenderFIFOAllocFree(t *testing.T) {
	m := NewSender(NewSim(), 0)
	frames := [][]byte{make([]byte, 64), make([]byte, 64), make([]byte, 64)}
	cycle := func() {
		for _, f := range frames {
			m.pending.Push(f)
		}
		for _, f := range frames {
			if got := m.NextFrame(); &got[0] != &f[0] {
				t.Fatal("NextFrame broke FIFO order")
			}
		}
	}
	cycle()
	if n := allocsOver(1000, cycle); n != 0 {
		t.Errorf("sender FIFO push/pop allocates %v times in 1000 cycles", n)
	}
	if m.NextFrame() != nil {
		t.Error("drained sender returned a frame")
	}
}

// TestPaceWakeRecycled: a pacing wake, superseded or live, is a recycled
// record that is its own event; only the live one kicks.
func TestPaceWakeRecycled(t *testing.T) {
	s := NewSim()
	m := NewSender(s, 0)
	kicks := 0
	m.OnWindowOpen = func() { kicks++ }
	blocked := &senderConn{rateBps: 1e9}
	cycle := func() {
		// Arm a wake, then supersede it with a tighter one.
		m.paceBlocked = append(m.paceBlocked[:0], blocked)
		blocked.allowance = 0
		m.scheduleWake()
		blocked.allowance = paceFrameBytes / 2
		m.scheduleWake()
		s.RunUntil(s.Now() + 1_000_000)
	}
	cycle()
	if kicks != 1 {
		t.Fatalf("kicks = %d after one cycle, want 1 (the superseded wake must not kick)", kicks)
	}
	if n := allocsOver(1000, cycle); n != 0 {
		t.Errorf("pacing wake allocates %v times in 1000 cycles", n)
	}
	if kicks != 2001 {
		t.Errorf("kicks = %d, want 2001", kicks)
	}
}

// TestReverseFramesAllocPagesOnly: a reverse frame's record is its own
// event, so n frames in flight cost the link one allocation per page of
// revPageLen records and nothing per frame, and once they have landed a
// second burst reuses the recycled records without allocating.
func TestReverseFramesAllocPagesOnly(t *testing.T) {
	const n = 100
	s := NewSim()
	l := NewLink(s, NewSender(s, 0), mustTestNIC(t))
	frame := nic.Frame{Data: testFrame(1, 0)} // for no conn: the sender drops it
	// Grow the event queue to n pending events first, so that only the
	// link's records are counted.
	idle := eventFunc(func() {})
	for i := 0; i < n; i++ {
		s.After(0, idle)
	}
	s.RunUntil(0)
	burst := func() {
		for i := uint64(0); i < n; i++ {
			l.DeliverReverse(frame, i)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	burst()
	runtime.ReadMemStats(&after)
	pages := uint64((n + revPageLen - 1) / revPageLen)
	if got := after.Mallocs - before.Mallocs; got > pages {
		t.Errorf("%d reverse frames allocated %d times, want at most %d (pages only)", n, got, pages)
	}
	landed := func() {
		burst()
		s.RunUntil(s.Now() + n + DefaultLinkDelayNs)
	}
	landed()
	if got := l.Stats().ReverseFrames; got != 2*n {
		t.Fatalf("ReverseFrames = %d, want %d", got, 2*n)
	}
	if a := allocsOver(10, landed); a != 0 {
		t.Errorf("recycled reverse frames allocate %v times in 10 bursts", a)
	}
}

// TestRPCPollAllocFree pins the incast driver once warm: a full burst
// cycle (requests out, responses in, the completion poll firing the next
// burst) allocates nothing, re-arming polls included.
func TestRPCPollAllocFree(t *testing.T) {
	cfg := rpcIncastConfig()
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := top.rpc
	burst := func() {
		want := r.rounds + 1
		for r.rounds < want {
			top.sim.RunUntil(top.sim.Now() + rpcPollNs)
		}
	}
	top.sim.RunUntil(20_000_000)
	if r.rounds == 0 {
		t.Fatal("no burst completed during warm-up")
	}
	if n := allocsOver(200, burst); n != 0 {
		t.Errorf("incast burst cycles allocate %v times in 200 cycles", n)
	}
}

// TestApplySkewAllocFree: a warm flow generator re-skews (every churn
// tick) without allocating, and gives the same rates as a cold one.
func TestApplySkewAllocFree(t *testing.T) {
	cfg := faultsChurnConfig()
	cfg.ChurnIntervalNs = 0
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rates := func() []float64 {
		var r []float64
		for _, snd := range top.senders {
			for _, c := range snd.conns {
				r = append(r, c.rateBps)
			}
		}
		return r
	}
	cold := rates()
	if n := allocsOver(100, top.gen.applySkew); n != 0 {
		t.Errorf("applySkew allocates %v times in 100 calls on a warm generator", n)
	}
	warm := rates()
	for i := range cold {
		if cold[i] <= 0 || warm[i] != cold[i] {
			t.Fatalf("conn %d rate %v after re-skew, %v cold", i, warm[i], cold[i])
		}
	}
}

// BenchmarkEventHeap measures one pop and one push of an event on a queue
// holding 1024 events, the shape of a busy run's timeline.
func BenchmarkEventHeap(b *testing.B) {
	var h eventHeap
	fn := eventFunc(func() {})
	var seq uint64
	for ; seq < 1024; seq++ {
		h.push(event{at: seq * 7919 % 1024, seq: seq, h: fn})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		seq++
		h.push(event{at: ev.at + seq*7919%1024, seq: seq, h: fn})
	}
}
