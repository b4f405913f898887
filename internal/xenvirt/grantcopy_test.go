package xenvirt

import (
	"bytes"
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/ether"
)

// pooledAggregate builds a dom0 host packet the way the aggregation engine
// does: a pooled head frame plus frags-1 fragments, each the payload of
// its own pooled frame.
func pooledAggregate(tb testing.TB, frags int) (*Machine, *buf.SKB) {
	tb.Helper()
	m, err := New(Config{Params: cost.XenGuest(), NICCount: 1, Clock: func() uint64 { return 0 }})
	if err != nil {
		tb.Fatal(err)
	}
	frame := func(fill byte) []byte {
		b, _ := m.Alloc.FrameBuf(1514)
		for i := range b {
			b[i] = fill + byte(i)
		}
		return b
	}
	skb := m.Alloc.NewData(frame(1), ether.HeaderLen)
	skb.Pooled = true
	for i := 1; i < frags; i++ {
		b := frame(byte(i))
		m.Alloc.AttachFrag(skb, buf.Frag{Data: b[66:], Buf: b, Ack: uint32(i)})
	}
	return m, skb
}

func TestGrantCopyPooledAllocFree(t *testing.T) {
	m, skb := pooledAggregate(t, 20)
	g := m.grantCopy(skb)
	if !g.Pooled || !bytes.Equal(g.Head, skb.Head) || len(g.Frags) != len(skb.Frags) {
		t.Fatal("grant copy lost the head or fragments")
	}
	for i := range g.Frags {
		f := g.Frags[i]
		if f.Buf == nil || !bytes.Equal(f.Data, skb.Frags[i].Data) || f.Ack != skb.Frags[i].Ack {
			t.Fatalf("fragment %d not copied into a pool buffer intact", i)
		}
	}
	m.Alloc.Free(g)
	cycle := func() { m.Alloc.Free(m.grantCopy(skb)) }
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("pooled grant copy allocates %.1f times per host packet", n)
	}
}

func BenchmarkGrantCopy(b *testing.B) {
	m, skb := pooledAggregate(b, 20)
	b.SetBytes(int64(len(skb.Head) + 19*len(skb.Frags[0].Data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Alloc.Free(m.grantCopy(skb))
	}
}
