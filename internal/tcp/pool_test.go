package tcp

import (
	"bytes"
	"testing"

	"repro/internal/buf"
	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
)

// mixSource is a deterministic payload source (any fixed mix will do).
func mixSource(seq uint32, b []byte) uint16 {
	for i := range b {
		b[i] = byte((seq + uint32(i)) * 2654435761 >> 24)
	}
	return checksum.Sum(b)
}

// pooledSender returns a sending endpoint whose allocator cuts frames
// from pool, with a window wide open.
func pooledSender(tb testing.TB, pool *buf.Pool, mutate func(*Config)) (*Endpoint, *buf.Allocator) {
	tb.Helper()
	var m cycles.Meter
	p := cost.NativeUP()
	alloc := buf.NewAllocator(&m, &p)
	alloc.SetPool(pool)
	cfg := DefaultConfig()
	cfg.LocalIP, cfg.RemoteIP = ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}
	cfg.LocalPort, cfg.RemotePort = 5001, 44000
	cfg.Source = mixSource
	if mutate != nil {
		mutate(&cfg)
	}
	var now uint64
	ep, err := New(cfg, &m, &p, alloc, func() uint64 { now += 1000; return now })
	if err != nil {
		tb.Fatal(err)
	}
	ep.SetAppLimit(^uint64(0))
	ep.Output = alloc.Free
	return ep, alloc
}

// TestPooledFramesMatchFresh builds the same frame sequence — data,
// retransmission, FIN and SACK-carrying ACKs — once from recycled buffers
// full of garbage and once from fresh ones: the bytes must be identical,
// so the builder overwrites every byte.
func TestPooledFramesMatchFresh(t *testing.T) {
	dirty := buf.NewPool()
	var held [][]byte
	for i := 0; i < 8; i++ {
		b := dirty.Get(buf.FrameBufCap)
		for j := range b {
			b[j] = 0xa5
		}
		held = append(held, b)
	}
	for _, b := range held {
		dirty.Put(b)
	}
	pooled, palloc := pooledSender(t, dirty, func(c *Config) { c.SACK = true })
	fresh, _ := pooledSender(t, nil, func(c *Config) { c.SACK = true })

	var got, want [][]byte
	var gotSKBs, wantSKBs []*buf.SKB
	pooled.OnRetransmit = func(f []byte) { got = append(got, f) }
	fresh.OnRetransmit = func(f []byte) { want = append(want, f) }
	pooled.Output = func(s *buf.SKB) { gotSKBs = append(gotSKBs, s) }
	fresh.Output = func(s *buf.SKB) { wantSKBs = append(wantSKBs, s) }
	for _, ep := range []*Endpoint{pooled, fresh} {
		frames := &want
		if ep == pooled {
			frames = &got
		}
		*frames = append(*frames, ep.NextDataFrame(0), ep.NextDataFrame(700))
		ep.retransmitOne()
		// Out-of-order data makes the ACKs carry SACK blocks.
		ep.Input(dataSeg(1+3000, ep.SndNxt(), make([]byte, 100)))
		ep.Input(dataSeg(1+5000, ep.SndNxt(), make([]byte, 100)))
		ep.AppClose()
		*frames = append(*frames, ep.NextDataFrame(0))
	}
	if len(got) != len(want) || len(gotSKBs) != len(wantSKBs) || len(gotSKBs) == 0 {
		t.Fatalf("pooled built %d frames/%d ACKs, fresh %d/%d", len(got), len(gotSKBs), len(want), len(wantSKBs))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d differs between recycled and fresh buffers", i)
		}
	}
	p, err := parseFrame(gotSKBs[len(gotSKBs)-1].Head)
	if err != nil || len(p.TCP.SACKBlocks()) == 0 {
		t.Errorf("the last ACK carries no SACK blocks (%v); the SACK layout went untested", err)
	}
	for i := range gotSKBs {
		if !bytes.Equal(gotSKBs[i].Head, wantSKBs[i].Head) {
			t.Errorf("ACK %d differs between recycled and fresh buffers", i)
		}
		if !gotSKBs[i].Pooled {
			t.Errorf("ACK %d not marked as a pool buffer", i)
		}
		palloc.Free(gotSKBs[i])
	}
}

// TestNextDataFramePooledAllocFree pins the steady-state sender hot path:
// build a pooled data frame, release it, acknowledge it — zero allocations.
func TestNextDataFramePooledAllocFree(t *testing.T) {
	ep, alloc := pooledSender(t, buf.NewPool(), nil)
	cycle := func() {
		alloc.Release(ep.NextDataFrame(0))
		ep.processAck(ep.SndNxt())
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("pooled NextDataFrame+release allocates %.1f times per frame", n)
	}
}

func BenchmarkNextDataFramePooled(b *testing.B) {
	ep, alloc := pooledSender(b, buf.NewPool(), nil)
	b.SetBytes(int64(ep.cfg.MSS))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alloc.Release(ep.NextDataFrame(0))
		ep.processAck(ep.SndNxt())
	}
}

// TestRetransmitListKeepsStorage checks that the retransmit list, whose
// start advances as ACKs arrive, stops allocating once it has grown to
// the flight.
func TestRetransmitListKeepsStorage(t *testing.T) {
	ep, alloc := pooledSender(t, buf.NewPool(), nil)
	for i := 0; i < 8; i++ {
		alloc.Release(ep.NextDataFrame(0))
	}
	cycle := func() {
		alloc.Release(ep.NextDataFrame(0))
		ep.processAck(ep.SndUna() + uint32(ep.cfg.MSS)) // flight stays 8 deep
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("sliding retransmit list allocates %.2f times per frame", n)
	}
	if msg := ep.CheckAccounting(); msg != "" {
		t.Error(msg)
	}
}
