package buf

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/cycles"
)

func newTestAlloc() (*Allocator, *cycles.Meter, cost.Params) {
	var m cycles.Meter
	p := cost.NativeUP()
	return NewAllocator(&m, &p), &m, p
}

func TestNewDataCharges(t *testing.T) {
	a, m, p := newTestAlloc()
	head := make([]byte, 1514)
	s := a.NewData(head, 14)
	if got := m.Get(cycles.Buffer); got != p.SKBAlloc {
		t.Errorf("alloc charge = %d, want %d", got, p.SKBAlloc)
	}
	if s.NetPackets != 1 || s.Aggregated || s.Kind != KindData {
		t.Errorf("fresh data SKB state: %+v", s)
	}
	if len(s.L3()) != 1500 {
		t.Errorf("L3() length = %d, want 1500", len(s.L3()))
	}
	a.Free(s)
	if got := m.Get(cycles.Buffer); got != p.SKBAlloc+p.SKBFree {
		t.Errorf("after free charge = %d, want %d", got, p.SKBAlloc+p.SKBFree)
	}
}

func TestAckSKBCharges(t *testing.T) {
	a, m, p := newTestAlloc()
	s := a.NewAck(make([]byte, 66), 14)
	a.Free(s)
	if got, want := m.Get(cycles.Buffer), p.AckSKBAlloc+p.AckSKBFree; got != want {
		t.Errorf("ack alloc+free charge = %d, want %d", got, want)
	}
	st := a.Stats()
	if st.AckAllocs != 1 || st.AckFrees != 1 || st.Live != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAttachFrag(t *testing.T) {
	a, m, p := newTestAlloc()
	s := a.NewData(make([]byte, 1514), 14)
	base := m.Get(cycles.Buffer)
	for i := 0; i < 19; i++ {
		a.AttachFrag(s, Frag{Data: make([]byte, 1448), Ack: uint32(i)})
	}
	if got, want := m.Get(cycles.Buffer)-base, 19*p.FragAttach; got != want {
		t.Errorf("frag charges = %d, want %d", got, want)
	}
	if s.NetPackets != 20 {
		t.Errorf("NetPackets = %d, want 20", s.NetPackets)
	}
	if len(s.Frags) != 19 || len(s.Frags[18].Data) != 1448 {
		t.Errorf("%d frags attached, want 19 of 1448 bytes", len(s.Frags))
	}
}

func TestFragAcks(t *testing.T) {
	a, _, _ := newTestAlloc()
	s := a.NewData(make([]byte, 100), 14)
	s.FirstAck = 1000
	a.AttachFrag(s, Frag{Ack: 2000})
	a.AttachFrag(s, Frag{Ack: 3000})
	acks := s.FragAcks()
	want := []uint32{1000, 2000, 3000}
	if len(acks) != len(want) {
		t.Fatalf("FragAcks len = %d, want %d", len(acks), len(want))
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Errorf("FragAcks[%d] = %d, want %d", i, acks[i], want[i])
		}
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a, _, _ := newTestAlloc()
	s := a.NewData(make([]byte, 60), 14)
	a.Free(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	a.Free(s)
}

func TestAttachFragOnFreedPanics(t *testing.T) {
	a, _, _ := newTestAlloc()
	s := a.NewData(make([]byte, 60), 14)
	a.Free(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on attach to freed SKB")
		}
	}()
	a.AttachFrag(s, Frag{})
}

func TestFreeNilIsNoop(t *testing.T) {
	a, m, _ := newTestAlloc()
	a.Free(nil)
	if m.Total() != 0 {
		t.Error("Free(nil) charged cycles")
	}
}

func TestRecycledSKBIsClean(t *testing.T) {
	a, _, _ := newTestAlloc()
	s := a.NewData(make([]byte, 100), 14)
	s.Aggregated = true
	s.TemplateAcks = []uint32{1, 2}
	a.AttachFrag(s, Frag{Ack: 5})
	a.Free(s)
	s2 := a.NewData(make([]byte, 200), 14)
	if s2.Aggregated || s2.TemplateAcks != nil || len(s2.Frags) != 0 || s2.NetPackets != 1 {
		t.Errorf("recycled SKB not clean: %+v", s2)
	}
	// The recycler may or may not hand back the same pointer; behaviour
	// must be identical either way.
	a.Free(s2)
	if a.Stats().Live != 0 {
		t.Errorf("Live = %d, want 0", a.Stats().Live)
	}
}

func TestChargeFrameBuf(t *testing.T) {
	a, m, p := newTestAlloc()
	a.ChargeFrameBuf()
	a.ChargeFrameBuf()
	if got, want := m.Get(cycles.Buffer), 2*p.DataBufPerFrame; got != want {
		t.Errorf("frame buf charges = %d, want %d", got, want)
	}
}

func TestAggregateVsPerPacketBufferCost(t *testing.T) {
	// The optimization's core claim for the buffer category: one SKB per
	// 20-frame aggregate plus 19 frag attaches must cost far less than 20
	// SKB lifecycles (§2.2, §3.5).
	aggAlloc, aggMeter, p := newTestAlloc()
	s := aggAlloc.NewData(make([]byte, 1514), 14)
	for i := 0; i < 19; i++ {
		aggAlloc.AttachFrag(s, Frag{})
	}
	aggAlloc.Free(s)
	aggCost := aggMeter.Get(cycles.Buffer)

	baseAlloc, baseMeter, _ := newTestAlloc()
	for i := 0; i < 20; i++ {
		baseAlloc.Free(baseAlloc.NewData(make([]byte, 1514), 14))
	}
	baseCost := baseMeter.Get(cycles.Buffer)

	_ = p
	if ratio := float64(baseCost) / float64(aggCost); ratio < 4 {
		t.Errorf("buffer cost reduction = %.1fx, want >= 4x (base %d, agg %d)",
			ratio, baseCost, aggCost)
	}
}

func TestNewAllocatorPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil meter")
		}
	}()
	p := cost.NativeUP()
	NewAllocator(nil, &p)
}
