package netstack

import (
	"bytes"
	"testing"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/driver"
	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/tcp"
	"repro/internal/tcpwire"
)

var (
	senderIP = ipv4.Addr{10, 0, 0, 1}
	rcvrIP   = ipv4.Addr{10, 0, 0, 2}
)

// rig is a full receive pipeline: NIC -> driver -> (aggregation) -> stack
// -> endpoint, with transmitted frames captured off the NIC.
type rig struct {
	nic     *nic.NIC
	drv     *driver.Driver
	rp      *core.ReceivePath // nil for baseline
	stack   *Stack
	ep      *tcp.Endpoint
	meter   *cycles.Meter
	alloc   *buf.Allocator
	params  cost.Params
	sent    [][]byte
	app     bytes.Buffer
	now     uint64
	nextSeq uint32
	ipid    uint16
}

func newRig(t *testing.T, optimized, ackOffload bool) *rig {
	t.Helper()
	r := &rig{params: cost.NativeUP()}
	var m cycles.Meter
	r.meter = &m
	r.alloc = buf.NewAllocator(&m, &r.params)

	n, err := nic.New(nic.DefaultConfig("eth0"))
	if err != nil {
		t.Fatal(err)
	}
	r.nic = n
	n.OnTransmit = func(f nic.Frame) { r.sent = append(r.sent, f.Data) }

	r.stack = New(&m, &r.params, r.alloc)

	cfg := tcp.DefaultConfig()
	cfg.LocalIP, cfg.RemoteIP = rcvrIP, senderIP
	cfg.LocalPort, cfg.RemotePort = 44000, 5001
	cfg.AckOffload = ackOffload
	ep, err := tcp.New(cfg, &m, &r.params, r.alloc, func() uint64 { return r.now })
	if err != nil {
		t.Fatal(err)
	}
	r.ep = ep
	ep.AppSink = func(b []byte) { r.app.Write(b) }
	if err := r.stack.Register(ep, senderIP, rcvrIP, 5001, 44000); err != nil {
		t.Fatal(err)
	}

	if optimized {
		rp, err := core.New(core.DefaultOptions(), &m, &r.params, r.alloc, r.stack.InputOn(0))
		if err != nil {
			t.Fatal(err)
		}
		r.rp = rp
		r.drv = driver.NewQueue(n, 0, driver.ModeRaw, &m, &r.params, r.alloc)
		r.drv.DeliverRaw = rp.EnqueueRaw
	} else {
		r.drv = driver.NewQueue(n, 0, driver.ModeBaseline, &m, &r.params, r.alloc)
		r.drv.DeliverSKB = r.stack.InputOn(0)
	}
	r.stack.Tx = r.drv
	return r
}

// pump runs the full receive path over the queued wire frames.
func (r *rig) pump() {
	for r.nic.RxQueueLenOn(0) > 0 {
		r.drv.Poll(64)
		if r.rp != nil {
			r.rp.Process(1 << 20)
		}
	}
}

// sendStream puts count MSS-sized in-order segments on the wire,
// continuing the sequence across calls.
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
			SrcIP: senderIP, DstIP: rcvrIP,
			SrcPort: 5001, DstPort: 44000,
			Seq: seq, Ack: 1, Flags: tcpwire.FlagACK | tcpwire.FlagPSH,
			Window: 65535, HasTS: true, TSVal: 7, TSEcr: 3,
			Payload: payload, IPID: r.ipid,
		})
		if !r.nic.ReceiveFromWire(nic.Frame{Data: f}) {
			t.Fatal("NIC ring overflow in test")
		}
		seq += 1448
	}
	r.nextSeq = seq
}

// ackNumsSent extracts the ACK numbers of all transmitted pure ACKs.
func (r *rig) ackNumsSent(t *testing.T) []uint32 {
	t.Helper()
	var acks []uint32
	for _, f := range r.sent {
		p, err := packet.Parse(f)
		if err != nil {
			t.Fatalf("transmitted frame unparseable: %v", err)
		}
		acks = append(acks, p.TCP.Ack)
	}
	return acks
}

func TestBaselineEndToEnd(t *testing.T) {
	r := newRig(t, false, false)
	r.sendStream(t, 40)
	r.pump()
	if got := r.ep.Stats().BytesToApp; got != 40*1448 {
		t.Errorf("BytesToApp = %d, want %d", got, 40*1448)
	}
	// 40 segments => 20 ACKs on the wire.
	if len(r.sent) != 20 {
		t.Errorf("ACKs sent = %d, want 20", len(r.sent))
	}
	if r.stack.Stats().HostPacketsIn != 40 {
		t.Errorf("host packets = %d, want 40 (no aggregation)", r.stack.Stats().HostPacketsIn)
	}
}

func TestOptimizedEndToEnd(t *testing.T) {
	r := newRig(t, true, true)
	r.sendStream(t, 40)
	r.pump()
	if got := r.ep.Stats().BytesToApp; got != 40*1448 {
		t.Errorf("BytesToApp = %d, want %d", got, 40*1448)
	}
	// Same 20 ACKs on the wire (expanded from templates).
	if len(r.sent) != 20 {
		t.Errorf("ACKs on wire = %d, want 20", len(r.sent))
	}
	// But the stack saw ~2 host packets instead of 40.
	if got := r.stack.Stats().HostPacketsIn; got > 4 {
		t.Errorf("host packets = %d, want <=4 with aggregation", got)
	}
	if r.ep.Stats().AckTemplatesOut == 0 {
		t.Error("no ACK templates emitted with offload enabled")
	}
}

// TestEquivalenceBaselineVsOptimized is the repository's central
// correctness property (paper §3.4, §3.6, §4.2): for an in-order bulk
// stream, the optimized receive path must deliver the identical application
// byte stream and put the identical ACK train on the wire as the baseline.
func TestEquivalenceBaselineVsOptimized(t *testing.T) {
	for _, n := range []int{1, 2, 3, 19, 20, 21, 40, 55} {
		base := newRig(t, false, false)
		base.sendStream(t, n)
		base.pump()

		opt := newRig(t, true, true)
		opt.sendStream(t, n)
		opt.pump()

		if !bytes.Equal(base.app.Bytes(), opt.app.Bytes()) {
			t.Errorf("n=%d: application byte streams differ", n)
		}
		baseAcks := base.ackNumsSent(t)
		optAcks := opt.ackNumsSent(t)
		if len(baseAcks) != len(optAcks) {
			t.Errorf("n=%d: ACK count %d (optimized) != %d (baseline)",
				n, len(optAcks), len(baseAcks))
			continue
		}
		for i := range baseAcks {
			if baseAcks[i] != optAcks[i] {
				t.Errorf("n=%d: ACK[%d] = %d (optimized) != %d (baseline)",
					n, i, optAcks[i], baseAcks[i])
			}
		}
	}
}

func TestOptimizedCyclesPerPacketLower(t *testing.T) {
	// The headline claim, in miniature: cycles per network packet must
	// drop substantially on the optimized path.
	const n = 200
	base := newRig(t, false, false)
	base.sendStream(t, 100)
	base.pump()
	base.sendStream(t, 100)
	base.pump()
	opt := newRig(t, true, true)
	opt.sendStream(t, 100)
	opt.pump()
	opt.sendStream(t, 100)
	opt.pump()

	baseCyc := float64(base.meter.Total()) / n
	optCyc := float64(opt.meter.Total()) / n
	if optCyc >= baseCyc {
		t.Fatalf("optimized %.0f cycles/pkt >= baseline %.0f", optCyc, baseCyc)
	}
	improvement := baseCyc/optCyc - 1
	if improvement < 0.30 {
		t.Errorf("improvement = %.0f%%, want >=30%% (paper: 45%% CPU-scaled)", improvement*100)
	}
	// Per-packet categories must fall by a large factor (paper: 4.3x).
	pp := func(m *cycles.Meter) float64 {
		return float64(m.Sum(cycles.PerPacketCategories...)) / n
	}
	if ratio := pp(base.meter) / pp(opt.meter); ratio < 3 {
		t.Errorf("per-packet category reduction = %.1fx, want >=3x", ratio)
	}
	// Per-byte costs must be (nearly) unchanged.
	pb := func(m *cycles.Meter) float64 { return float64(m.Get(cycles.PerByte)) / n }
	if baseB, optB := pb(base.meter), pb(opt.meter); optB < baseB*0.95 || optB > baseB*1.05 {
		t.Errorf("per-byte changed: %.0f -> %.0f cycles/pkt", baseB, optB)
	}
}

func TestNoSocketDrops(t *testing.T) {
	r := newRig(t, false, false)
	f := packet.MustBuild(packet.TCPSpec{
		SrcIP: senderIP, DstIP: rcvrIP,
		SrcPort: 9999, DstPort: 44000, // unregistered port
		Seq: 1, Ack: 1, Flags: tcpwire.FlagACK,
		Payload: []byte{1}, HasTS: true,
	})
	r.nic.ReceiveFromWire(nic.Frame{Data: f})
	r.pump()
	if r.stack.Stats().NoSocket != 1 {
		t.Errorf("NoSocket = %d, want 1", r.stack.Stats().NoSocket)
	}
	if r.alloc.Stats().Live != 0 {
		t.Errorf("leaked SKBs: %d", r.alloc.Stats().Live)
	}
}

// TestSoftwareChecksumFallback: an SKB the NIC did not verify (a frame
// its parse could not validate) is checksummed by the stack in software,
// charged per byte, and dropped if the checksum is bad.
func TestSoftwareChecksumFallback(t *testing.T) {
	r := newRig(t, false, false)
	input := r.stack.InputOn(0)
	segment := func(seq uint32, verified, corrupt bool) *buf.SKB {
		f := packet.MustBuild(packet.TCPSpec{
			SrcIP: senderIP, DstIP: rcvrIP,
			SrcPort: 5001, DstPort: 44000,
			Seq: seq, Ack: 1, Flags: tcpwire.FlagACK, Window: 65535,
			HasTS: true, Payload: make([]byte, 1448), CorruptTCPCsum: corrupt,
		})
		skb := r.alloc.NewData(f, ether.HeaderLen)
		skb.CsumVerified = verified
		return skb
	}
	perByte := func(skb *buf.SKB) uint64 {
		before := r.meter.Get(cycles.PerByte)
		input(skb)
		return r.meter.Get(cycles.PerByte) - before
	}

	offloaded := perByte(segment(1, true, false))
	software := perByte(segment(1+1448, false, false))
	if r.stack.Stats().SoftCsumVerify != 1 {
		t.Errorf("SoftCsumVerify = %d, want 1", r.stack.Stats().SoftCsumVerify)
	}
	if r.ep.Stats().BytesToApp != 2*1448 {
		t.Errorf("BytesToApp = %d, want %d", r.ep.Stats().BytesToApp, 2*1448)
	}
	segLen := tcpwire.TimestampHeaderLen + 1448
	if got, want := software-offloaded, r.params.Mem.ChecksumCost(segLen); got != want {
		t.Errorf("software checksum charged %d per-byte cycles over the offloaded segment, want %d", got, want)
	}

	// A corrupted segment must be dropped by the software check.
	input(segment(1+2*1448, false, true))
	if r.stack.Stats().BadChecksum != 1 {
		t.Errorf("BadChecksum = %d, want 1", r.stack.Stats().BadChecksum)
	}
	if r.ep.Stats().BytesToApp != 2*1448 {
		t.Error("corrupted segment delivered")
	}
	if r.alloc.Stats().Live != 0 {
		t.Errorf("leaked SKBs: %d", r.alloc.Stats().Live)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	r := newRig(t, false, false)
	cfg := tcp.DefaultConfig()
	ep2, err := tcp.New(cfg, r.meter, &r.params, r.alloc, func() uint64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if err := r.stack.Register(ep2, senderIP, rcvrIP, 5001, 44000); err == nil {
		t.Error("duplicate registration accepted")
	}
	r.stack.Unregister(senderIP, rcvrIP, 5001, 44000)
	if err := r.stack.Register(ep2, senderIP, rcvrIP, 5001, 44000); err != nil {
		t.Errorf("re-registration after unregister failed: %v", err)
	}
}

func TestMalformedPacketCounted(t *testing.T) {
	r := newRig(t, false, false)
	skb := r.alloc.NewData(make([]byte, 30), 14) // truncated garbage
	r.stack.InputOn(0)(skb)
	if r.stack.Stats().Malformed != 1 {
		t.Errorf("Malformed = %d, want 1", r.stack.Stats().Malformed)
	}
	if r.alloc.Stats().Live != 0 {
		t.Error("malformed SKB leaked")
	}
}

func TestNoSKBLeaksAcrossFullRun(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		r := newRig(t, optimized, optimized)
		r.sendStream(t, 60)
		r.pump()
		// ACK SKBs are freed by the driver after transmit; data SKBs by
		// the endpoint. Nothing may remain live.
		if live := r.alloc.Stats().Live; live != 0 {
			t.Errorf("optimized=%v: %d SKBs still live", optimized, live)
		}
	}
}
