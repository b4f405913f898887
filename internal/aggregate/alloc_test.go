package aggregate

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/nic"
	"repro/internal/packet"
)

// replay feeds the frames of a run through the engine in the given order,
// then flushes it as an idle queue would. Delivery rewrites head frames in
// place, so each pass restores them from pristine copies first; every
// delivered SKB is freed on the spot, which recycles it.
type replay struct {
	e               *env
	pristine, frame [][]byte
	order           []int
	packets         []int // NetPackets of each delivery, while recording
	record          bool
}

// newReplay builds frames 0..n-1 of one flow's MSS-sized run.
func newReplay(tb testing.TB, cfg Config, n int, order []int) *replay {
	tb.Helper()
	r := &replay{e: newEnv(tb, cfg), order: order}
	for i := 0; i < n; i++ {
		f := flowFrame(uint32(1+i*1448), 1, 1448, nil)
		r.pristine = append(r.pristine, f.Data)
		r.frame = append(r.frame, make([]byte, len(f.Data)))
	}
	r.e.eng.Out = func(s *buf.SKB) {
		if r.record {
			r.packets = append(r.packets, s.NetPackets)
		}
		r.e.alloc.Free(s)
	}
	return r
}

func (r *replay) pass() {
	for _, i := range r.order {
		copy(r.frame[i], r.pristine[i])
		r.e.eng.Input(nic.Frame{Data: r.frame[i], RxCsumOK: true})
	}
	r.e.eng.FlushAll()
}

// windowCycle is one hold → stitch → Limit-flush → drain pass with Limit 3
// and a 4-frame window: 2, 3, 5 and 6 arrive ahead and are held; 1 fills
// the gap and stitches 2, which reaches the Limit; the run continues from
// 3; the idle flush delivers 3 and drains 5-6 as one aggregate.
var windowCycle = []int{0, 2, 3, 5, 6, 1}

// TestReorderWindowAllocFree pins the resequencing window: once the
// pending records and their window storage are warm, a full
// hold/stitch/flush/drain cycle allocates nothing.
func TestReorderWindowAllocFree(t *testing.T) {
	r := newReplay(t, Config{Limit: 3, ReorderWindow: 4}, 7, windowCycle)
	r.record = true
	r.pass()
	r.record = false
	if want := []int{3, 1, 2}; len(r.packets) != len(want) ||
		r.packets[0] != want[0] || r.packets[1] != want[1] || r.packets[2] != want[2] {
		t.Fatalf("deliveries = %v NetPackets, want %v", r.packets, want)
	}
	st := r.e.eng.Stats()
	if st.Held != 4 || st.Stitched != 2 || st.FlushLimit != 1 || st.FlushHeldDrain != 1 {
		t.Fatalf("cycle did not exercise hold, stitch, Limit flush and drain: %+v", st)
	}
	// A total over many cycles, not AllocsPerRun's truncated mean: window
	// storage lost to a front pop regrows only every few cycles.
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			r.pass()
		}
	}); n != 0 {
		t.Errorf("reorder-window cycles allocate %v times in 1000 cycles", n)
	}
	if live := r.e.alloc.Stats().Live; live != 0 {
		t.Errorf("%d SKBs live after the cycles", live)
	}
}

// TestEvictOldestAllocFree pins table-full eviction: with one flow more
// than the table holds, fed round robin, every frame evicts the oldest
// aggregate, and a warm engine does so without allocating. The order
// slice keeps its storage across evictions, and compaction reuses its
// scratch.
func TestEvictOldestAllocFree(t *testing.T) {
	const flows = tableSize + 1
	e := newEnv(t, Config{Limit: 20})
	pristine, frame := make([][]byte, flows), make([][]byte, flows)
	for f := range pristine {
		port := uint16(6000 + f)
		pristine[f] = flowFrame(1, 1, 1448, func(s *packet.TCPSpec) { s.SrcPort = port }).Data
		frame[f] = make([]byte, len(pristine[f]))
	}
	e.eng.Out = func(s *buf.SKB) { e.alloc.Free(s) }
	round := func() {
		for f := range frame {
			copy(frame[f], pristine[f])
			e.eng.Input(nic.Frame{Data: frame[f], RxCsumOK: true})
		}
	}
	for i := 0; i < 100; i++ {
		round()
	}
	before := e.eng.Stats().FlushEvict
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			round()
		}
	}); n != 0 {
		t.Errorf("evicting rounds allocate %v times in 1000 rounds", n)
	}
	if got := e.eng.Stats().FlushEvict - before; got != 2*1000*flows {
		t.Errorf("%d evictions in 2000 rounds of %d flows, want one per frame", got, flows)
	}
	if len(e.eng.order) > 4*tableSize+1 {
		t.Errorf("order slice grew to %d entries", len(e.eng.order))
	}
}

// BenchmarkEngineInput measures the engine per frame: an in-order run of
// 20 frames (one Limit-sized aggregate), and the reorder-window cycle.
func BenchmarkEngineInput(b *testing.B) {
	inOrder := make([]int, 20)
	for i := range inOrder {
		inOrder[i] = i
	}
	for _, bc := range []struct {
		name  string
		cfg   Config
		n     int
		order []int
	}{
		{"inorder", Config{Limit: 20}, 20, inOrder},
		{"reorder-window4", Config{Limit: 3, ReorderWindow: 4}, 7, windowCycle},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := newReplay(b, bc.cfg, bc.n, bc.order)
			r.pass()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.order)), "ns/frame")
		})
	}
}

// TestPacketAcksCoversDefaultLimit: buf.PacketAcks, the first size of the
// containers that hold one host packet's ACKs, is one ACK per frame of an
// aggregate at the default Limit plus one for a FIN.
func TestPacketAcksCoversDefaultLimit(t *testing.T) {
	if want := DefaultConfig().Limit + 1; buf.PacketAcks != want {
		t.Errorf("buf.PacketAcks = %d, want the default Limit plus one, %d", buf.PacketAcks, want)
	}
}
