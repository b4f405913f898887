package xenvirt

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/frontend"
	"repro/internal/ipv4"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/paper"
	"repro/internal/tcp"
	"repro/internal/tcpwire"
)

var (
	senderIP = ipv4.Addr{10, 0, 0, 1}
	guestIP  = ipv4.Addr{10, 0, 0, 99}
)

type rig struct {
	m       *Machine
	ep      *tcp.Endpoint
	app     bytes.Buffer
	sent    [][]byte
	now     uint64
	nextSeq uint32
	ipid    uint16
}

func newRig(t *testing.T, mode frontend.Mode, ackOffload bool) *rig {
	t.Helper()
	r := &rig{}
	cfg := frontend.Config{
		Params:      cost.XenGuest(),
		NICCount:    1,
		Mode:        mode,
		Aggregation: core.DefaultOptions(),
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.m = m
	m.NICs()[0].OnTransmit = func(f nic.Frame) { r.sent = append(r.sent, f.Data) }

	tcfg := tcp.DefaultConfig()
	tcfg.LocalIP, tcfg.RemoteIP = guestIP, senderIP
	tcfg.LocalPort, tcfg.RemotePort = 44000, 5001
	tcfg.AckOffload = ackOffload
	ep, err := tcp.New(tcfg, &m.Meter, &m.Params, m.Alloc, func() uint64 { return r.now })
	if err != nil {
		t.Fatal(err)
	}
	ep.AppSink = func(b []byte) { r.app.Write(b) }
	if err := m.Stack.Register(ep, senderIP, guestIP, 5001, 44000); err != nil {
		t.Fatal(err)
	}
	r.ep = ep
	return r
}

func (r *rig) sendStream(t *testing.T, count int) {
	t.Helper()
	if r.nextSeq == 0 {
		r.nextSeq = 1
	}
	seq := r.nextSeq
	for i := 0; i < count; i++ {
		r.ipid++
		payload := make([]byte, 1448)
		for j := range payload {
			payload[j] = byte(seq + uint32(j))
		}
		f := packet.MustBuild(packet.TCPSpec{
			SrcIP: senderIP, DstIP: guestIP,
			SrcPort: 5001, DstPort: 44000,
			Seq: seq, Ack: 1, Flags: tcpwire.FlagACK | tcpwire.FlagPSH,
			Window: 65535, HasTS: true, TSVal: 7, TSEcr: 3,
			Payload: payload, IPID: r.ipid,
		})
		if !r.m.NICs()[0].ReceiveFromWire(nic.Frame{Data: f}) {
			t.Fatal("NIC ring overflow")
		}
		seq += 1448
	}
	r.nextSeq = seq
}

func (r *rig) pump() {
	for r.m.NICs()[0].RxQueueLenOn(0) > 0 {
		r.m.ProcessRound(0, 64)
	}
}

func TestNewValidation(t *testing.T) {
	good := frontend.Config{Params: cost.XenGuest(), NICCount: 1}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Params = cost.NativeUP() // lacks virtualization costs
	if _, err := New(bad); err == nil {
		t.Error("native profile accepted for Xen machine")
	}
	bad = good
	bad.NICCount = 0
	if _, err := New(bad); err == nil {
		t.Error("zero NICs accepted")
	}
}

func TestBaselineDelivery(t *testing.T) {
	r := newRig(t, frontend.ModeBaseline, false)
	r.sendStream(t, 20)
	r.pump()
	if got := r.ep.Stats().BytesToApp; got != 20*1448 {
		t.Errorf("BytesToApp = %d, want %d", got, 20*1448)
	}
	// 20 segments -> 10 ACKs on the physical wire.
	if len(r.sent) != 10 {
		t.Errorf("wire ACKs = %d, want 10", len(r.sent))
	}
	// Every virtualization category must be charged.
	for _, c := range []cycles.Category{cycles.Netback, cycles.Netfront, cycles.Xen, cycles.PerByte} {
		if r.m.Meter.Get(c) == 0 {
			t.Errorf("category %v uncharged on baseline path", c)
		}
	}
	// One grant copy per packet: each crossing reaches the guest stack
	// as one host packet.
	if got := r.m.Stack.Stats().HostPacketsIn; got != 20 {
		t.Errorf("guest host packets = %d, want 20 (one per packet)", got)
	}
}

func TestOptimizedDelivery(t *testing.T) {
	r := newRig(t, frontend.ModeOptimized, true)
	r.sendStream(t, 40)
	r.pump()
	if got := r.ep.Stats().BytesToApp; got != 40*1448 {
		t.Errorf("BytesToApp = %d, want %d", got, 40*1448)
	}
	if len(r.sent) != 20 {
		t.Errorf("wire ACKs = %d, want 20", len(r.sent))
	}
	// Aggregation in dom0: the I/O channel crossed ~2 times, not 40.
	if got := r.m.Stack.Stats().HostPacketsIn; got > 4 {
		t.Errorf("guest host packets = %d, want <=4 with aggregation", got)
	}
	if r.ep.Stats().AckTemplatesOut == 0 {
		t.Error("no ACK templates with offload enabled")
	}
	if r.m.ReceivePaths()[0] == nil {
		t.Fatal("optimized machine lacks receive path")
	}
}

func TestStreamEquivalenceBaselineVsOptimized(t *testing.T) {
	base := newRig(t, frontend.ModeBaseline, false)
	base.sendStream(t, 40)
	base.pump()
	opt := newRig(t, frontend.ModeOptimized, true)
	opt.sendStream(t, 40)
	opt.pump()
	if !bytes.Equal(base.app.Bytes(), opt.app.Bytes()) {
		t.Error("application streams differ between baseline and optimized Xen paths")
	}
	baseAcks := ackNums(t, base.sent)
	optAcks := ackNums(t, opt.sent)
	if len(baseAcks) != len(optAcks) {
		t.Fatalf("ACK counts differ: %d vs %d", len(baseAcks), len(optAcks))
	}
	for i := range baseAcks {
		if baseAcks[i] != optAcks[i] {
			t.Errorf("ACK[%d]: %d vs %d", i, baseAcks[i], optAcks[i])
		}
	}
}

func ackNums(t *testing.T, frames [][]byte) []uint32 {
	t.Helper()
	var out []uint32
	for _, f := range frames {
		p, err := packet.Parse(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p.TCP.Ack)
	}
	return out
}

func TestVirtPerPacketReduction(t *testing.T) {
	// §5.1: the virtualization per-packet categories must fall by
	// roughly 3.7x — less than the native reduction because netback,
	// netfront and grant operations keep per-fragment costs.
	const frames = 200
	run := func(mode frontend.Mode, ao bool) cycles.Snapshot {
		r := newRig(t, mode, ao)
		for i := 0; i < frames/40; i++ {
			r.sendStream(t, 40)
			r.pump()
		}
		return r.m.Meter.Snapshot()
	}
	base := run(frontend.ModeBaseline, false)
	opt := run(frontend.ModeOptimized, true)

	virt := func(s cycles.Snapshot) float64 {
		return float64(s.Sum(cycles.XenPerPacketCategories...)) / frames
	}
	row := paper.Get("fig10/virt")
	if ratio := virt(base) / virt(opt); !row.In(ratio) {
		t.Errorf("virt per-packet reduction = %.1fx, want ~%vx (band %v-%v)", ratio, row.Paper, row.Lo, row.Hi)
	}
	// Per-byte must not fall: two copies remain per byte.
	pbBase := float64(base.Get(cycles.PerByte)) / frames
	pbOpt := float64(opt.Get(cycles.PerByte)) / frames
	if pbOpt < pbBase*0.9 {
		t.Errorf("per-byte fell from %.0f to %.0f; copies must remain", pbBase, pbOpt)
	}
	// Total must improve substantially (paper: +86% CPU-scaled).
	tot := base.Total() > opt.Total()
	if !tot {
		t.Error("optimized Xen path not cheaper overall")
	}
}

func TestNetfrontNetbackKeepPerFragCosts(t *testing.T) {
	// With k=20 aggregation, netback/netfront per-frame cost must stay
	// above their per-frag floor (they cross per fragment).
	r := newRig(t, frontend.ModeOptimized, true)
	r.sendStream(t, 40)
	r.pump()
	nb := float64(r.m.Meter.Get(cycles.Netback)) / 40
	if nb < float64(r.m.Params.NetbackPerFrag) {
		t.Errorf("netback = %.0f cycles/frame, below per-frag floor %d",
			nb, r.m.Params.NetbackPerFrag)
	}
	nf := float64(r.m.Meter.Get(cycles.Netfront)) / 40
	if nf < float64(r.m.Params.NetfrontPerFrag) {
		t.Errorf("netfront = %.0f cycles/frame, below per-frag floor %d",
			nf, r.m.Params.NetfrontPerFrag)
	}
}

func TestNoSKBLeaks(t *testing.T) {
	for _, mode := range []frontend.Mode{frontend.ModeBaseline, frontend.ModeOptimized} {
		r := newRig(t, mode, mode == frontend.ModeOptimized)
		r.sendStream(t, 60)
		r.pump()
		if live := r.m.Alloc.Stats().Live; live != 0 {
			t.Errorf("mode %d: %d SKBs live after run", mode, live)
		}
	}
}

func TestGrantCopyPreservesBytes(t *testing.T) {
	r := newRig(t, frontend.ModeOptimized, false)
	r.sendStream(t, 20)
	r.pump()
	want := make([]byte, 20*1448)
	seq := uint32(1)
	for i := range want {
		want[i] = byte(seq + uint32(i%1448))
		if (i+1)%1448 == 0 {
			seq += 1448
		}
	}
	if !bytes.Equal(r.app.Bytes(), want) {
		t.Error("byte stream corrupted across grant copy")
	}
}
