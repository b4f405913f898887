package sim

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/ipv4"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/tcpwire"
)

func testFrame(seq uint32, payload int) []byte {
	return packet.MustBuild(packet.TCPSpec{
		SrcIP: ipv4.Addr{10, 0, 0, 1}, DstIP: ipv4.Addr{10, 0, 0, 2},
		SrcPort: 5001, DstPort: 44000,
		Seq: seq, Ack: 1, Flags: tcpwire.FlagACK,
		Window: 65535, HasTS: true,
		Payload: make([]byte, payload),
	})
}

func TestLinkDeliversAtRateAndDelay(t *testing.T) {
	s := NewSim()
	snd := NewSender(s, 0)
	if _, err := snd.AddStreamConn(
		ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}, 5001, 44000); err != nil {
		t.Fatal(err)
	}
	n := mustTestNIC(t)
	l := NewLink(s, snd, n)
	l.DelayNs = 10_000
	l.Kick()
	// First MTU frame: serialization 12304 ns + delay 10000 ns.
	s.RunUntil(12_304 + 10_000 - 1)
	if n.Stats().RxFrames != 0 {
		t.Fatal("frame arrived early")
	}
	s.RunUntil(12_304 + 10_000)
	if n.Stats().RxFrames != 1 {
		t.Fatalf("RxFrames = %d, want 1", n.Stats().RxFrames)
	}
	// Back-to-back frames are spaced one wire time apart.
	s.RunUntil(2*12_304 + 10_000)
	if n.Stats().RxFrames != 2 {
		t.Fatalf("RxFrames = %d, want 2", n.Stats().RxFrames)
	}
}

func TestLinkPausesOnRingPressure(t *testing.T) {
	s := NewSim()
	snd := NewSender(s, 0)
	// Several connections so the aggregate initial window (10 MSS each)
	// comfortably exceeds the pause threshold.
	for i := uint16(0); i < 5; i++ {
		if _, err := snd.AddStreamConn(
			ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}, 5001+i, 44000+i); err != nil {
			t.Fatal(err)
		}
	}
	cfg := nic.DefaultConfig("eth0")
	cfg.RxRingSize = 32
	n, err := nic.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLink(s, snd, n)
	l.RingHeadroom = 24 // pause at 8 queued
	l.Kick()
	s.RunUntil(100_000_000) // nobody drains the ring
	if n.Stats().RxDropped != 0 {
		t.Fatalf("lossless link dropped %d frames", n.Stats().RxDropped)
	}
	// The pause threshold is checked at transmit start; frames already
	// serialized or propagating still land, bounded by delay/wire-time.
	inFlightBound := int(l.DelayNs/l.wireTimeNs(1514)) + 2
	if got := n.RxQueueLen(); got > 32-l.RingHeadroom+inFlightBound {
		t.Errorf("ring filled to %d despite pause threshold", got)
	}
	if l.Stats().PauseEvents == 0 {
		t.Error("no pause events recorded under pressure")
	}
	// Draining the ring lets transmission resume.
	before := n.Stats().RxFrames
	n.PollRx(32)
	s.RunUntil(s.Now() + 1_000_000)
	if n.Stats().RxFrames <= before {
		t.Error("link did not resume after drain")
	}
}

func TestLinkReverseDelivery(t *testing.T) {
	s := NewSim()
	snd := NewSender(s, 0)
	ep, err := snd.AddStreamConn(
		ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}, 5001, 44000)
	if err != nil {
		t.Fatal(err)
	}
	n := mustTestNIC(t)
	l := NewLink(s, snd, n)
	l.DelayNs = 5_000

	// Put two frames in flight so an ACK has something to acknowledge.
	l.Kick()
	s.RunUntil(50_000)
	sent := ep.SndNxt() - 1 // ISS 1

	ack := packet.MustBuild(packet.TCPSpec{
		SrcIP: ipv4.Addr{10, 0, 0, 2}, DstIP: ipv4.Addr{10, 0, 0, 1},
		SrcPort: 44000, DstPort: 5001,
		Seq: 1, Ack: 1 + sent, Flags: tcpwire.FlagACK, Window: 65535, HasTS: true,
	})
	l.DeliverReverse(nic.Frame{Data: ack}, 0)
	s.RunUntil(s.Now() + 4_999)
	if ep.SndUna() != 1 {
		t.Fatal("ACK applied before the propagation delay")
	}
	s.RunUntil(s.Now() + 1)
	if ep.SndUna() != 1+sent {
		t.Errorf("SndUna = %d, want %d after reverse delivery", ep.SndUna(), 1+sent)
	}
	// Extra-delayed variant.
	ack2 := packet.MustBuild(packet.TCPSpec{
		SrcIP: ipv4.Addr{10, 0, 0, 2}, DstIP: ipv4.Addr{10, 0, 0, 1},
		SrcPort: 44000, DstPort: 5001,
		Seq: 1, Ack: 1 + sent, Flags: tcpwire.FlagACK, Window: 65535, HasTS: true,
	})
	before := l.Stats().ReverseFrames
	l.DeliverReverse(nic.Frame{Data: ack2}, 7_000)
	s.RunUntil(s.Now() + 12_000)
	if l.Stats().ReverseFrames != before+1 {
		t.Error("delayed reverse frame not counted")
	}
}

func TestLinkFlushesInterruptWhenIdle(t *testing.T) {
	s := NewSim()
	snd := NewSender(s, 0)
	ep, err := snd.AddConn( // nothing to send until AppWrite
		ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}, 5001, 44000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := nic.DefaultConfig("eth0")
	cfg.IntThrottleFrames = 100 // far above what we send
	n, err := nic.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	irqs := 0
	n.OnInterrupt = func(int) { irqs++ }
	l := NewLink(s, snd, n)
	ep.AppWrite(100)
	l.Kick()
	s.RunUntil(1_000_000)
	if n.Stats().RxFrames != 1 {
		t.Fatalf("RxFrames = %d, want 1", n.Stats().RxFrames)
	}
	// Despite the high threshold, the idle wire must have flushed the
	// interrupt so the lone frame is processed (Table 1 latency).
	if irqs == 0 {
		t.Error("no interrupt for a lone frame on an idle wire")
	}
}

func TestSenderReceiveFrameIgnoresGarbage(t *testing.T) {
	s := NewSim()
	snd := NewSender(s, 0)
	if _, err := snd.AddStreamConn(
		ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}, 5001, 44000); err != nil {
		t.Fatal(err)
	}
	// Corrupt frame and unknown-port frame must be ignored, not panic.
	snd.ReceiveFrame([]byte{1, 2, 3})
	other := packet.MustBuild(packet.TCPSpec{
		SrcIP: ipv4.Addr{10, 0, 0, 2}, DstIP: ipv4.Addr{10, 0, 0, 1},
		SrcPort: 44000, DstPort: 9999, // no such conn
		Seq: 1, Ack: 1, Flags: tcpwire.FlagACK,
	})
	snd.ReceiveFrame(other)
}

func TestCPUDriverSerializesRounds(t *testing.T) {
	// A CPU-bound machine must space rounds by the charged cycle time.
	cfg := shortStream(SystemNativeUP, OptNone)
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	top.sim.RunUntil(cfg.WarmupNs + cfg.DurationNs)
	elapsed := float64(cfg.WarmupNs + cfg.DurationNs)
	busyFrac := float64(top.cpu.cpus[0].busyCycles) / top.machine.ParamsRef().ClockHz / (elapsed / 1e9)
	if busyFrac > 1.02 {
		t.Errorf("CPU busy fraction %.3f exceeds physical capacity", busyFrac)
	}
	if busyFrac < 0.90 {
		t.Errorf("baseline run should be near CPU saturation, got %.3f", busyFrac)
	}
}

// TestLinkReleasesDroppedFrames runs a pooled sender into a ring nobody
// drains, with no pause headroom and a lossy wire: every buffer the pool
// ever issued must end up either queued in the ring or back in the pool,
// so ring-full rejects and losses both returned theirs.
func TestLinkReleasesDroppedFrames(t *testing.T) {
	s := NewSim()
	snd := NewSender(s, 0)
	pool := buf.NewPool()
	snd.SetPool(pool)
	for i := uint16(0); i < 5; i++ {
		if _, err := snd.AddStreamConn(
			ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}, 5001+i, 44000+i); err != nil {
			t.Fatal(err)
		}
	}
	cfg := nic.DefaultConfig("eth0")
	cfg.RxRingSize = 8
	n, err := nic.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLink(s, snd, n)
	l.RingHeadroom = 0 // never pause: the full ring drops
	l.LossOneIn, l.LossSeed = 3, 1
	l.Kick()
	s.RunUntil(100_000_000) // windows exhausted, wire idle, nothing drained
	if n.Stats().RxDropped == 0 || l.Stats().Lost == 0 {
		t.Fatalf("dropped %d, lost %d: both drop paths must fire", n.Stats().RxDropped, l.Stats().Lost)
	}
	if got, want := pool.Misses(), uint64(n.RxQueueLen()+pool.Len()); got != want {
		t.Errorf("pool issued %d buffers, but %d are queued and %d free", got, n.RxQueueLen(), pool.Len())
	}
	if pool.Misses() >= l.Stats().FramesDelivered+l.Stats().Lost {
		t.Error("no buffer was ever reused")
	}
}
