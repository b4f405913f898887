package nic

import (
	"testing"

	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/packet"
	"repro/internal/rss"
	"repro/internal/tcpwire"
)

func goodFrame() []byte {
	return packet.MustBuild(packet.TCPSpec{
		SrcMAC:  ether.Addr{0, 1, 2, 3, 4, 5},
		DstMAC:  ether.Addr{6, 7, 8, 9, 10, 11},
		SrcIP:   ipv4.Addr{10, 0, 0, 1},
		DstIP:   ipv4.Addr{10, 0, 0, 2},
		SrcPort: 5001, DstPort: 44000,
		Seq: 1, Ack: 2, Flags: tcpwire.FlagACK, Window: 1000,
		HasTS: true, TSVal: 1, TSEcr: 1,
		Payload: make([]byte, 100),
	})
}

func mustNIC(t *testing.T, cfg Config) *NIC {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Name: "x", IntThrottleFrames: 0}); err == nil {
		t.Error("expected error for zero throttle")
	}
}

func TestReceiveAndPoll(t *testing.T) {
	n := mustNIC(t, DefaultConfig("eth0"))
	for i := 0; i < 5; i++ {
		if !n.ReceiveFromWire(Frame{Data: goodFrame()}) {
			t.Fatal("frame rejected with empty ring")
		}
	}
	if n.RxQueueLenOn(0) != 5 {
		t.Errorf("RxQueueLenOn(0) = %d, want 5", n.RxQueueLenOn(0))
	}
	frames := n.PollRxInto(0, 3, nil)
	if len(frames) != 3 {
		t.Errorf("PollRxInto(0, 3) = %d frames", len(frames))
	}
	if n.RxQueueLenOn(0) != 2 {
		t.Errorf("RxQueueLenOn(0) after poll = %d, want 2", n.RxQueueLenOn(0))
	}
	// The poll appends to the caller's slice and takes at most max.
	if got := n.PollRxInto(0, 10, frames); len(got) != 5 {
		t.Errorf("second poll onto 3 frames = %d frames, want 5", len(got))
	}
	if got := n.PollRxInto(0, 10, nil); got != nil {
		t.Errorf("empty poll returned %d frames", len(got))
	}
}

func TestRingOverflowDrops(t *testing.T) {
	n := mustNIC(t, DefaultConfig("eth0"))
	frame := goodFrame()
	for i := 0; i < rxRingSize; i++ {
		if n.RxNearFull(1) {
			t.Fatalf("ring reads full with %d of %d slots used", i, rxRingSize)
		}
		if !n.ReceiveFromWire(Frame{Data: frame}) {
			t.Fatalf("frame %d rejected early", i)
		}
	}
	if !n.RxNearFull(1) {
		t.Error("RxNearFull(1) false with full ring")
	}
	if n.ReceiveFromWire(Frame{Data: goodFrame()}) {
		t.Error("frame accepted into full ring")
	}
	if n.Stats().RxDropped != 1 {
		t.Errorf("RxDropped = %d, want 1", n.Stats().RxDropped)
	}
}

func TestChecksumOffloadGood(t *testing.T) {
	n := mustNIC(t, DefaultConfig("eth0"))
	n.ReceiveFromWire(Frame{Data: goodFrame()})
	f := n.PollRxInto(0, 1, nil)[0]
	if !f.RxCsumOK {
		t.Error("valid frame not marked RxCsumOK")
	}
	if n.Stats().CsumGood != 1 {
		t.Errorf("CsumGood = %d", n.Stats().CsumGood)
	}
}

func TestChecksumOffloadBad(t *testing.T) {
	n := mustNIC(t, DefaultConfig("eth0"))
	spec := packet.TCPSpec{
		SrcIP: ipv4.Addr{10, 0, 0, 1}, DstIP: ipv4.Addr{10, 0, 0, 2},
		SrcPort: 1, DstPort: 2, Flags: tcpwire.FlagACK,
		Payload: []byte{1, 2, 3}, CorruptTCPCsum: true,
	}
	n.ReceiveFromWire(Frame{Data: packet.MustBuild(spec)})
	if f := n.PollRxInto(0, 1, nil)[0]; f.RxCsumOK {
		t.Error("corrupt frame marked RxCsumOK")
	}
	if n.Stats().CsumBad != 1 {
		t.Errorf("CsumBad = %d", n.Stats().CsumBad)
	}
}

func TestChecksumOffloadNonTCP(t *testing.T) {
	n := mustNIC(t, DefaultConfig("eth0"))
	// Runt frame and ARP frame must not be marked verified.
	n.ReceiveFromWire(Frame{Data: make([]byte, 10)})
	arp := goodFrame()
	arp[12], arp[13] = 0x08, 0x06
	n.ReceiveFromWire(Frame{Data: arp})
	for _, f := range n.PollRxInto(0, 2, nil) {
		if f.RxCsumOK {
			t.Error("non-TCP frame marked RxCsumOK")
		}
	}
}

func TestInterruptCoalescing(t *testing.T) {
	cfg := DefaultConfig("eth0")
	cfg.IntThrottleFrames = 4
	n := mustNIC(t, cfg)
	var irqs int
	n.OnInterrupt = func(int) { irqs++ }
	for i := 0; i < 8; i++ {
		n.ReceiveFromWire(Frame{Data: goodFrame()})
	}
	// 8 frames, throttle 4, no acks: only the first threshold crossing
	// fires (the line stays asserted).
	if irqs != 1 {
		t.Errorf("interrupts = %d, want 1", irqs)
	}
	n.PollRxInto(0, 8, nil)
	n.AckInterrupt(0)
	for i := 0; i < 4; i++ {
		n.ReceiveFromWire(Frame{Data: goodFrame()})
	}
	if irqs != 2 {
		t.Errorf("interrupts after ack = %d, want 2", irqs)
	}
}

func TestFlushInterrupt(t *testing.T) {
	cfg := DefaultConfig("eth0")
	cfg.IntThrottleFrames = 100
	n := mustNIC(t, cfg)
	var irqs int
	n.OnInterrupt = func(int) { irqs++ }
	n.ReceiveFromWire(Frame{Data: goodFrame()})
	if irqs != 0 {
		t.Fatal("interrupt fired below threshold")
	}
	n.FlushInterrupt()
	if irqs != 1 {
		t.Errorf("interrupts after flush = %d, want 1", irqs)
	}
	// Flushing with nothing queued must not fire.
	n.PollRxInto(0, 1, nil)
	n.AckInterrupt(0)
	n.FlushInterrupt()
	if irqs != 1 {
		t.Errorf("interrupts after empty flush = %d, want 1", irqs)
	}
}

func TestTransmit(t *testing.T) {
	n := mustNIC(t, DefaultConfig("eth0"))
	var sent [][]byte
	n.OnTransmit = func(f Frame) { sent = append(sent, f.Data) }
	n.Transmit(Frame{Data: []byte{1, 2, 3}})
	if len(sent) != 1 || n.Stats().TxFrames != 1 {
		t.Errorf("transmit not delivered: %d frames, stats %d", len(sent), n.Stats().TxFrames)
	}
	// Nil handler must not panic.
	n.OnTransmit = nil
	n.Transmit(Frame{Data: []byte{4}})
	if n.Stats().TxFrames != 2 {
		t.Errorf("TxFrames = %d, want 2", n.Stats().TxFrames)
	}
}

func flowFrame(srcPort, dstPort uint16) []byte {
	return packet.MustBuild(packet.TCPSpec{
		SrcMAC:  ether.Addr{0, 1, 2, 3, 4, 5},
		DstMAC:  ether.Addr{6, 7, 8, 9, 10, 11},
		SrcIP:   ipv4.Addr{10, 0, 0, 1},
		DstIP:   ipv4.Addr{10, 0, 0, 2},
		SrcPort: srcPort, DstPort: dstPort,
		Seq: 1, Ack: 2, Flags: tcpwire.FlagACK, Window: 1000,
		Payload: make([]byte, 64),
	})
}

// TestRSSSteering: every frame of a flow lands on the queue the Toeplitz
// hash names, and a varied flow population uses more than one queue.
func TestRSSSteering(t *testing.T) {
	cfg := DefaultConfig("eth0")
	cfg.RxQueues = 4
	n := mustNIC(t, cfg)
	used := map[int]bool{}
	for p := uint16(0); p < 64; p++ {
		sp, dp := 5001+p, uint16(44000)
		hash := rss.HashTCP4(ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}, sp, dp)
		want := rss.QueueOf(hash, 4)
		for rep := 0; rep < 3; rep++ {
			if !n.ReceiveFromWire(Frame{Data: flowFrame(sp, dp)}) {
				t.Fatal("frame rejected")
			}
		}
		fs := n.PollRxInto(want, 3, nil)
		if len(fs) != 3 {
			t.Fatalf("flow port %d: queue %d got %d frames, want 3", sp, want, len(fs))
		}
		for _, f := range fs {
			if f.RxQueue != want || f.RSSHash != hash {
				t.Fatalf("frame tagged queue %d hash %#x, want %d and %#x", f.RxQueue, f.RSSHash, want, hash)
			}
			if !f.RxCsumOK {
				t.Fatal("steered frame lost checksum offload")
			}
		}
		used[want] = true
	}
	if len(used) < 2 {
		t.Errorf("64 flows all steered to %d queue(s)", len(used))
	}
	for q := 0; q < n.RxQueues(); q++ {
		if n.RxQueueLenOn(q) != 0 {
			t.Errorf("frames left on unexpected queue %d: %d", q, n.RxQueueLenOn(q))
		}
	}
	if s := n.Stats(); s.RxFrames != 192 {
		t.Errorf("RxFrames = %d, want 192", s.RxFrames)
	}
}

// TestRSSUnhashableDefaultsToQueue0: frames the hardware cannot classify
// (runts, non-IP) go to the default queue, unhashed.
func TestRSSUnhashableDefaultsToQueue0(t *testing.T) {
	cfg := DefaultConfig("eth0")
	cfg.RxQueues = 4
	n := mustNIC(t, cfg)
	arp := goodFrame()
	arp[12], arp[13] = 0x08, 0x06
	n.ReceiveFromWire(Frame{Data: make([]byte, 10)})
	n.ReceiveFromWire(Frame{Data: arp})
	if got := n.RxQueueLenOn(0); got != 2 {
		t.Errorf("queue 0 holds %d frames, want 2", got)
	}
	for _, f := range n.PollRxInto(0, 2, nil) {
		if f.RSSHash != 0 {
			t.Errorf("unclassifiable frame carries hash %#x", f.RSSHash)
		}
	}
}

// TestPerQueueInterrupts: each queue has its own vector and throttling
// counter; acks on one queue do not disturb another.
func TestPerQueueInterrupts(t *testing.T) {
	cfg := DefaultConfig("eth0")
	cfg.RxQueues = 2
	cfg.IntThrottleFrames = 2
	n := mustNIC(t, cfg)
	irqs := map[int]int{}
	n.OnInterrupt = func(q int) { irqs[q]++ }

	// Find a port whose flow steers to queue 1.
	var q1Port uint16
	for p := uint16(5001); ; p++ {
		if rss.QueueOf(rss.HashTCP4(ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}, p, 44000), 2) == 1 {
			q1Port = p
			break
		}
	}
	for i := 0; i < 4; i++ {
		n.ReceiveFromWire(Frame{Data: flowFrame(q1Port, 44000)})
	}
	if irqs[1] != 1 || irqs[0] != 0 {
		t.Fatalf("irqs = %v, want queue 1 only", irqs)
	}
	n.PollRxInto(1, 8, nil)
	n.AckInterrupt(1)
	// Unclassifiable frames throttle on queue 0 independently.
	n.ReceiveFromWire(Frame{Data: make([]byte, 10)})
	n.ReceiveFromWire(Frame{Data: make([]byte, 10)})
	if irqs[0] != 1 {
		t.Fatalf("queue 0 irqs = %d, want 1", irqs[0])
	}
	// FlushInterrupt covers all queues with pending frames.
	n.ReceiveFromWire(Frame{Data: flowFrame(q1Port, 44000)})
	n.PollRxInto(0, 8, nil)
	n.AckInterrupt(0)
	n.FlushInterrupt()
	if irqs[1] != 2 {
		t.Errorf("queue 1 irqs after flush = %d, want 2", irqs[1])
	}
}

func TestRingWraparound(t *testing.T) {
	n := mustNIC(t, DefaultConfig("eth0"))
	seq := 0
	mk := func() Frame {
		seq++
		return Frame{Data: append(goodFrame(), byte(seq))}
	}
	// Interleave receive and poll across several wraps and check FIFO
	// order via the trailing marker byte.
	var got []byte
	want := byte(0)
	// Two frames in, two out per round: the ring's 256 slots wrap twice.
	for round := 0; round < rxRingSize; round++ {
		n.ReceiveFromWire(mk())
		n.ReceiveFromWire(mk())
		for _, f := range n.PollRxInto(0, 2, nil) {
			got = append(got, f.Data[len(f.Data)-1])
		}
	}
	for i, g := range got {
		want++
		if g != want {
			t.Fatalf("frame %d out of order: marker %d, want %d", i, g, want)
		}
	}
}
