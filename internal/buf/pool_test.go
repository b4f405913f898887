package buf

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/cycles"
)

// same reports whether a and b share their first byte (the same buffer).
func same(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }

func TestPoolRecyclesLIFO(t *testing.T) {
	p := NewPool()
	a, b := p.Get(1514), p.Get(600)
	if len(a) != 1514 || len(b) != 600 || cap(a) != FrameBufCap || cap(b) != FrameBufCap {
		t.Fatalf("Get lengths/caps %d/%d %d/%d", len(a), cap(a), len(b), cap(b))
	}
	ack := p.Get(66)
	if len(ack) != 66 || cap(ack) != SmallBufCap {
		t.Fatalf("small Get length/cap %d/%d", len(ack), cap(ack))
	}
	if p.Misses() != 3 {
		t.Fatalf("misses %d, want 3", p.Misses())
	}
	p.Put(a)
	p.Put(b)
	p.Put(ack)
	if got := p.Get(SmallBufCap); !same(got, ack) {
		t.Error("a small Get did not reuse the small buffer")
	}
	if got := p.Get(SmallBufCap + 1); !same(got, b) || len(got) != SmallBufCap+1 {
		t.Error("Get did not return the most recently released frame buffer")
	}
	if got := p.Get(1514); !same(got, a) {
		t.Error("second Get did not return the older buffer")
	}
	if p.Misses() != 3 || p.Len() != 0 {
		t.Errorf("after reuse: misses %d free %d, want 3 and 0", p.Misses(), p.Len())
	}
}

func TestPoolNilAndForeignBuffers(t *testing.T) {
	var nilPool *Pool
	if b := nilPool.Get(10); len(b) != 10 {
		t.Fatalf("nil pool Get len %d", len(b))
	}
	nilPool.Put(make([]byte, 10)) // no-op, must not panic

	p := NewPool()
	p.Put(make([]byte, 60)) // not a pool size class: dropped
	if p.Len() != 0 {
		t.Errorf("foreign buffer kept: %d free", p.Len())
	}
	big := p.Get(FrameBufCap + 1)
	if len(big) != FrameBufCap+1 || p.Misses() != 0 {
		t.Errorf("oversize Get: len %d, misses %d", len(big), p.Misses())
	}
	p.Put(big)
	if p.Len() != 0 {
		t.Error("oversize buffer entered the pool")
	}
}

func TestFreeReleasesHeadAndFrags(t *testing.T) {
	var m cycles.Meter
	params := cost.NativeUP()
	a := NewAllocator(&m, &params)
	p := NewPool()
	a.SetPool(p)

	head, pooled := a.FrameBuf(1514)
	if !pooled {
		t.Fatal("pooled allocator issued an unpooled buffer")
	}
	frag, _ := a.FrameBuf(1514)
	s := a.NewData(head, 14)
	s.Pooled = true
	a.AttachFrag(s, Frag{Data: frag[66:], Buf: frag})
	a.AttachFrag(s, Frag{Data: make([]byte, 100)}) // hand-built: never released
	a.Free(s)
	if p.Len() != 2 {
		t.Fatalf("Free released %d buffers, want 2 (head and pooled frag)", p.Len())
	}

	// A hand-built head is never released, even by a pooled allocator.
	s = a.NewData(make([]byte, FrameBufCap), 14)
	a.Free(s)
	if p.Len() != 2 {
		t.Errorf("unpooled head released: %d free", p.Len())
	}

	// An unpooled allocator hands out plain buffers.
	b := NewAllocator(&m, &params)
	if _, pooled := b.FrameBuf(64); pooled {
		t.Error("unpooled allocator reported a pooled buffer")
	}
}

func TestTemplateAcksCapacityRecycled(t *testing.T) {
	var m cycles.Meter
	params := cost.NativeUP()
	a := NewAllocator(&m, &params)
	s := a.NewAck(make([]byte, 66), 14)
	s.SetTemplateAcks([]uint32{1, 2, 3})
	a.Free(s)
	s = a.NewAck(make([]byte, 66), 14)
	if s.TemplateAcks != nil {
		t.Fatal("recycled SKB still marked as a template")
	}
	if n := testing.AllocsPerRun(100, func() {
		s.SetTemplateAcks([]uint32{4, 5})
	}); n != 0 {
		t.Errorf("SetTemplateAcks allocates %.1f times with recycled capacity", n)
	}
	if len(s.TemplateAcks) != 2 || s.TemplateAcks[1] != 5 {
		t.Errorf("TemplateAcks = %v", s.TemplateAcks)
	}
}

// TestPoolCarvesPages: a size class allocates once per pageBufs buffers it
// carves, not once per buffer.
func TestPoolCarvesPages(t *testing.T) {
	p := NewPool()
	for _, n := range []int{1514, 66} {
		// AllocsPerRun's warm-up call carves the first page, the measured
		// call exactly the second.
		if got := testing.AllocsPerRun(1, func() {
			for range pageBufs {
				p.Get(n)
			}
		}); got != 1 {
			t.Errorf("carving %d buffers of %d bytes allocated %.0f times, want 1", pageBufs, n, got)
		}
	}
	if p.Misses() != 4*pageBufs {
		t.Errorf("Misses %d, want %d", p.Misses(), 4*pageBufs)
	}
}
