package core

import (
	"testing"

	"repro/internal/aggregate"
	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/paper"
	"repro/internal/tcpwire"
)

func frame(seq uint32) nic.Frame {
	return nic.Frame{
		Data: packet.MustBuild(packet.TCPSpec{
			SrcIP: ipv4.Addr{10, 0, 0, 1}, DstIP: ipv4.Addr{10, 0, 0, 2},
			SrcPort: 5001, DstPort: 44000,
			Seq: seq, Ack: 1, Flags: tcpwire.FlagACK, Window: 65535,
			HasTS: true, TSVal: 1, TSEcr: 1,
			Payload: make([]byte, 1448),
		}),
		RxCsumOK: true,
	}
}

type env struct {
	rp    *ReceivePath
	alloc *buf.Allocator
	out   []*buf.SKB
}

func newEnv(t *testing.T, opts Options) *env {
	t.Helper()
	var m cycles.Meter
	p := cost.NativeUP()
	e := &env{}
	e.alloc = buf.NewAllocator(&m, &p)
	rp, err := New(opts, &m, &p, e.alloc, func(s *buf.SKB) { e.out = append(e.out, s) })
	if err != nil {
		t.Fatal(err)
	}
	e.rp = rp
	return e
}

func TestNewValidation(t *testing.T) {
	var m cycles.Meter
	p := cost.NativeUP()
	alloc := buf.NewAllocator(&m, &p)
	if _, err := New(DefaultOptions(), &m, &p, alloc, nil); err == nil {
		t.Error("expected error for nil out")
	}
	o := DefaultOptions()
	o.Aggregation.Limit = 0
	if _, err := New(o, &m, &p, alloc, func(*buf.SKB) {}); err == nil {
		t.Error("expected error for bad aggregation config")
	}
}

func TestProcessAggregatesFullBursts(t *testing.T) {
	e := newEnv(t, DefaultOptions())
	for i := 0; i < 40; i++ {
		if !e.rp.EnqueueRaw(frame(uint32(1 + i*1448))) {
			t.Fatal("enqueue failed")
		}
	}
	n := e.rp.Process(100)
	if n != 40 {
		t.Fatalf("processed %d, want 40", n)
	}
	// 40 frames at limit 20: exactly 2 aggregates.
	if len(e.out) != 2 {
		t.Fatalf("host packets = %d, want 2", len(e.out))
	}
	for _, s := range e.out {
		if s.NetPackets != 20 || !s.Aggregated {
			t.Errorf("aggregate = %d packets, aggregated=%v", s.NetPackets, s.Aggregated)
		}
	}
}

func TestProcessFlushesOnEmptyQueue(t *testing.T) {
	// Work conservation (§3.5): a partial aggregate must be delivered the
	// moment the queue runs dry, not held for more frames.
	e := newEnv(t, DefaultOptions())
	for i := 0; i < 3; i++ {
		e.rp.EnqueueRaw(frame(uint32(1 + i*1448)))
	}
	e.rp.Process(100)
	if len(e.out) != 1 {
		t.Fatalf("host packets = %d, want 1 flushed partial", len(e.out))
	}
	if e.out[0].NetPackets != 3 {
		t.Errorf("partial aggregate = %d packets, want 3", e.out[0].NetPackets)
	}
	if e.rp.Engine().PendingFlows() != 0 {
		t.Error("pending flows after empty-queue process")
	}
}

func TestProcessBudgetExhaustedKeepsPending(t *testing.T) {
	e := newEnv(t, DefaultOptions())
	for i := 0; i < 10; i++ {
		e.rp.EnqueueRaw(frame(uint32(1 + i*1448)))
	}
	n := e.rp.Process(4)
	if n != 4 {
		t.Fatalf("processed %d, want 4", n)
	}
	// Budget exhausted with queue non-empty: partial aggregate stays
	// pending (more frames are coming; the stack is not idle).
	if len(e.out) != 0 {
		t.Errorf("host packets = %d, want 0 while backlog remains", len(e.out))
	}
	// Next round drains the other 6 and flushes.
	if n := e.rp.Process(100); n != 6 {
		t.Errorf("second round processed %d, want the 6 left queued", n)
	}
	if len(e.out) != 1 || e.out[0].NetPackets != 10 {
		t.Errorf("final delivery wrong: %d packets", len(e.out))
	}
}

func TestEnqueueRawFullQueue(t *testing.T) {
	e := newEnv(t, DefaultOptions())
	f := frame(1)
	for i := 0; i < queueCapacity; i++ {
		if !e.rp.EnqueueRaw(f) {
			t.Fatalf("enqueue %d failed below capacity", i)
		}
	}
	if e.rp.EnqueueRaw(f) {
		t.Error("enqueue succeeded into full queue")
	}
}

func TestFlushForcesDelivery(t *testing.T) {
	e := newEnv(t, DefaultOptions())
	e.rp.EnqueueRaw(frame(1))
	e.rp.EnqueueRaw(frame(1449))
	// Consume without letting Process see an empty queue... process all,
	// which flushes; then check FlushAll is harmless when nothing pends.
	e.rp.Process(2)
	before := len(e.out)
	e.rp.Engine().FlushAll()
	if len(e.out) != before {
		t.Error("FlushAll delivered something unexpected")
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	o := DefaultOptions()
	if chosen := paper.Get("fig11/chosen").Paper; float64(o.Aggregation.Limit) != chosen {
		t.Errorf("default Aggregation Limit = %d, paper chose %v (§5.2)", o.Aggregation.Limit, chosen)
	}
	if !o.AckOffload {
		t.Error("default must enable ACK offload (§4.3)")
	}
	if o.Aggregation != aggregate.DefaultConfig() {
		t.Error("aggregation defaults diverged")
	}
}
