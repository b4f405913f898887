package driver

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/ackoff"
	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/tcpwire"
)

type harness struct {
	nic    *nic.NIC
	drv    *Driver
	meter  *cycles.Meter
	params cost.Params
	alloc  *buf.Allocator
}

func newHarness(t *testing.T, mode Mode) *harness {
	t.Helper()
	n, err := nic.New(nic.DefaultConfig("eth0"))
	if err != nil {
		t.Fatal(err)
	}
	var m cycles.Meter
	p := cost.NativeUP()
	alloc := buf.NewAllocator(&m, &p)
	return &harness{
		nic:    n,
		drv:    NewQueue(n, 0, mode, &m, &p, alloc),
		meter:  &m,
		params: p,
		alloc:  alloc,
	}
}

func dataFrame(seq uint32) []byte {
	return packet.MustBuild(packet.TCPSpec{
		SrcIP: ipv4.Addr{10, 0, 0, 1}, DstIP: ipv4.Addr{10, 0, 0, 2},
		SrcPort: 5001, DstPort: 44000,
		Seq: seq, Ack: 1, Flags: tcpwire.FlagACK, Window: 65535,
		HasTS: true, TSVal: 9, TSEcr: 9,
		Payload: make([]byte, 1448),
	})
}

func ackFrame(ack uint32) []byte {
	return packet.MustBuild(packet.TCPSpec{
		SrcIP: ipv4.Addr{10, 0, 0, 2}, DstIP: ipv4.Addr{10, 0, 0, 1},
		SrcPort: 44000, DstPort: 5001,
		Seq: 500, Ack: ack, Flags: tcpwire.FlagACK, Window: 65535,
		HasTS: true, TSVal: 9, TSEcr: 9,
		IPID: 7,
	})
}

func TestBaselinePollDeliversSKBs(t *testing.T) {
	h := newHarness(t, ModeBaseline)
	var got []*buf.SKB
	h.drv.DeliverSKB = func(s *buf.SKB) { got = append(got, s) }
	for i := 0; i < 4; i++ {
		h.nic.ReceiveFromWire(nic.Frame{Data: dataFrame(uint32(i * 1448))})
	}
	if n := h.drv.Poll(64); n != 4 {
		t.Fatalf("Poll = %d, want 4", n)
	}
	if len(got) != 4 {
		t.Fatalf("delivered %d SKBs, want 4", len(got))
	}
	for _, s := range got {
		if !s.CsumVerified {
			t.Error("SKB not marked CsumVerified despite NIC offload")
		}
		if s.L3Offset != ether.HeaderLen {
			t.Errorf("L3Offset = %d", s.L3Offset)
		}
		if s.NetPackets != 1 || s.Aggregated {
			t.Error("baseline SKB must represent one packet")
		}
	}
	// Driver category: per frame fixed + desc touch + MAC proc + header touch.
	perFrame := h.params.DriverRxFixed +
		h.params.Mem.RandomTouchCost(h.params.DriverDescLines) +
		h.params.MACProcFixed + h.params.Mem.HeaderTouchCost()
	if gotC, want := h.meter.Get(cycles.Driver), 4*perFrame; gotC != want {
		t.Errorf("driver charge = %d, want %d", gotC, want)
	}
	// Buffer: SKB alloc + frame buf per frame.
	if gotC, want := h.meter.Get(cycles.Buffer),
		4*(h.params.SKBAlloc+h.params.DataBufPerFrame); gotC != want {
		t.Errorf("buffer charge = %d, want %d", gotC, want)
	}
}

func TestRawPollDeliversFrames(t *testing.T) {
	h := newHarness(t, ModeRaw)
	var frames []nic.Frame
	h.drv.DeliverRaw = func(f nic.Frame) bool { frames = append(frames, f); return true }
	for i := 0; i < 6; i++ {
		h.nic.ReceiveFromWire(nic.Frame{Data: dataFrame(uint32(i * 1448))})
	}
	h.drv.Poll(64)
	if len(frames) != 6 {
		t.Fatalf("delivered %d raw frames, want 6", len(frames))
	}
	// No MAC processing, no header touch, no SKB allocation.
	perFrame := h.params.DriverRxFixed + h.params.Mem.RandomTouchCost(h.params.DriverDescLines)
	if gotC, want := h.meter.Get(cycles.Driver), 6*perFrame; gotC != want {
		t.Errorf("driver charge = %d, want %d (no MAC/header in raw mode)", gotC, want)
	}
	if gotC, want := h.meter.Get(cycles.Buffer), 6*h.params.DataBufPerFrame; gotC != want {
		t.Errorf("buffer charge = %d, want %d (no SKBs in raw mode)", gotC, want)
	}
	if gotC, want := h.meter.Get(cycles.NonProto), 6*h.params.NonProtoRawPerFrame; gotC != want {
		t.Errorf("non-proto charge = %d, want %d", gotC, want)
	}
	if h.drv.Stats().RawDelivered != 6 {
		t.Errorf("RawDelivered = %d", h.drv.Stats().RawDelivered)
	}
}

func TestRawModeSavesDriverCycles(t *testing.T) {
	// The §5.1 claim: moving MAC processing out of the driver saves
	// MACProcFixed + header-touch per frame (~681 cycles at 3 GHz).
	base := newHarness(t, ModeBaseline)
	base.drv.DeliverSKB = func(s *buf.SKB) { base.alloc.Free(s) }
	raw := newHarness(t, ModeRaw)
	raw.drv.DeliverRaw = func(nic.Frame) bool { return true }
	for i := 0; i < 10; i++ {
		base.nic.ReceiveFromWire(nic.Frame{Data: dataFrame(uint32(i))})
		raw.nic.ReceiveFromWire(nic.Frame{Data: dataFrame(uint32(i))})
	}
	base.drv.Poll(64)
	raw.drv.Poll(64)
	saved := (base.meter.Get(cycles.Driver) - raw.meter.Get(cycles.Driver)) / 10
	want := base.params.MACProcFixed + base.params.Mem.HeaderTouchCost()
	if saved != want {
		t.Errorf("per-frame driver savings = %d, want %d", saved, want)
	}
	if saved < 600 || saved > 760 {
		t.Errorf("savings = %d cycles, paper reports ~681", saved)
	}
}

func TestRawQueueFullDrops(t *testing.T) {
	h := newHarness(t, ModeRaw)
	h.drv.DeliverRaw = func(nic.Frame) bool { return false }
	h.nic.ReceiveFromWire(nic.Frame{Data: dataFrame(0)})
	h.drv.Poll(64)
	if h.drv.Stats().RawQueueFull != 1 {
		t.Errorf("RawQueueFull = %d, want 1", h.drv.Stats().RawQueueFull)
	}
}

func TestPollAcksInterruptWhenDrained(t *testing.T) {
	h := newHarness(t, ModeBaseline)
	h.drv.DeliverSKB = func(s *buf.SKB) { h.alloc.Free(s) }
	irqs := 0
	h.nic.OnInterrupt = func(int) { irqs++ }
	for i := 0; i < 20; i++ {
		h.nic.ReceiveFromWire(nic.Frame{Data: dataFrame(uint32(i))})
	}
	first := irqs
	h.drv.Poll(64)
	// Ring drained; new frames must be able to interrupt again.
	for i := 0; i < 20; i++ {
		h.nic.ReceiveFromWire(nic.Frame{Data: dataFrame(uint32(i))})
	}
	if irqs <= first {
		t.Error("interrupt not re-armed after drain")
	}
}

func TestTransmitPlainPacket(t *testing.T) {
	h := newHarness(t, ModeBaseline)
	var sent []nic.Frame
	h.nic.OnTransmit = func(f nic.Frame) { sent = append(sent, f) }
	skb := h.alloc.NewAck(ackFrame(1000), ether.HeaderLen)
	h.drv.Transmit(skb)
	if len(sent) != 1 {
		t.Fatalf("sent %d frames, want 1", len(sent))
	}
	if got := h.meter.Get(cycles.Driver); got != h.params.DriverTxPerPacket {
		t.Errorf("driver tx charge = %d, want %d", got, h.params.DriverTxPerPacket)
	}
	if h.alloc.Stats().Live != 0 {
		t.Error("SKB not freed after transmit")
	}
}

func TestTransmitAckTemplateExpansion(t *testing.T) {
	h := newHarness(t, ModeBaseline)
	var sent [][]byte
	h.nic.OnTransmit = func(f nic.Frame) { sent = append(sent, f.Data) }

	acks := []uint32{1000, 3896, 6792, 9688}
	skb := h.alloc.NewAck(ackFrame(acks[0]), ether.HeaderLen)
	skb.TemplateAcks = acks[1:]
	h.drv.Transmit(skb)

	if len(sent) != 4 {
		t.Fatalf("sent %d frames, want 4", len(sent))
	}
	if h.drv.Stats().AcksExpanded != 3 {
		t.Errorf("AcksExpanded = %d, want 3", h.drv.Stats().AcksExpanded)
	}
	for i, frame := range sent {
		p, err := packet.Parse(frame)
		if err != nil {
			t.Fatalf("ack %d unparseable: %v", i, err)
		}
		if p.TCP.Ack != acks[i] {
			t.Errorf("ack %d: ACK field = %d, want %d", i, p.TCP.Ack, acks[i])
		}
		// Every expanded ACK must carry valid checksums end to end.
		l3 := frame[ether.HeaderLen:]
		if !ipv4.VerifyChecksum(l3) {
			t.Errorf("ack %d: bad IP checksum", i)
		}
		ih, _ := ipv4.Parse(l3)
		if !tcpwire.VerifyChecksum(l3[ih.IHL:ih.TotalLen], ih.Src, ih.Dst) {
			t.Errorf("ack %d: bad TCP checksum", i)
		}
		// IP IDs must be distinct and sequential.
		if p.IP.ID != 7+uint16(i) {
			t.Errorf("ack %d: IP ID = %d, want %d", i, p.IP.ID, 7+i)
		}
	}
}

func TestExpandedAcksMatchIndividuallyBuiltAcks(t *testing.T) {
	// The §4.2 equivalence: expansion must produce byte-identical packets
	// to ACKs generated one at a time by the stack (same timestamps).
	h := newHarness(t, ModeBaseline)
	var sent [][]byte
	h.nic.OnTransmit = func(f nic.Frame) { sent = append(sent, f.Data) }

	acks := []uint32{2896, 5792, 8688}
	skb := h.alloc.NewAck(ackFrame(acks[0]), ether.HeaderLen)
	skb.TemplateAcks = acks[1:]
	h.drv.Transmit(skb)

	for i, ackNum := range acks {
		want := ackFrame(ackNum)
		// Individually built ACKs would carry sequential IP IDs.
		binary.BigEndian.PutUint16(want[ether.HeaderLen+4:], 7+uint16(i))
		l3 := want[ether.HeaderLen:]
		l3[10], l3[11] = 0, 0
		ih, _ := ipv4.Parse(l3)
		hdr := ih
		hdr.ID = 7 + uint16(i)
		if err := hdr.Put(l3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sent[i], want) {
			t.Errorf("expanded ack %d differs from individually built ack", i)
		}
	}
}

func TestTransmitChargesPerExpandedAck(t *testing.T) {
	h := newHarness(t, ModeBaseline)
	skb := h.alloc.NewAck(ackFrame(100), ether.HeaderLen)
	skb.TemplateAcks = []uint32{200, 300}
	base := h.meter.Get(cycles.Driver)
	h.drv.Transmit(skb)
	got := h.meter.Get(cycles.Driver) - base
	want := 3*h.params.DriverTxPerPacket + 2*h.params.AckExpandPerAck
	if got != want {
		t.Errorf("driver tx charge = %d, want %d", got, want)
	}
}

func TestModeString(t *testing.T) {
	if ModeBaseline.String() != "baseline" || ModeRaw.String() != "raw" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode name wrong")
	}
}

// pooledCopy copies a frame into a buffer of the harness allocator's pool.
func (h *harness) pooledCopy(frame []byte) nic.Frame {
	b, pooled := h.alloc.FrameBuf(len(frame))
	copy(b, frame)
	return nic.Frame{Data: b, Pooled: pooled}
}

func TestRawQueueFullReleasesFrame(t *testing.T) {
	h := newHarness(t, ModeRaw)
	pool := buf.NewPool()
	h.alloc.SetPool(pool)
	h.drv.DeliverRaw = func(nic.Frame) bool { return false } // backlog full
	h.nic.ReceiveFromWire(h.pooledCopy(dataFrame(1)))
	h.nic.ReceiveFromWire(nic.Frame{Data: dataFrame(1449)}) // hand-built
	h.drv.Poll(64)
	if h.drv.Stats().RawQueueFull != 2 {
		t.Fatalf("RawQueueFull = %d, want 2", h.drv.Stats().RawQueueFull)
	}
	if pool.Len() != 1 {
		t.Errorf("%d buffers back in the pool, want 1 (the pooled frame only)", pool.Len())
	}
}

func TestTransmitPassesBufferOwnershipToWire(t *testing.T) {
	h := newHarness(t, ModeBaseline)
	pool := buf.NewPool()
	h.alloc.SetPool(pool)
	var sent []nic.Frame
	h.nic.OnTransmit = func(f nic.Frame) { sent = append(sent, f) }
	f := h.pooledCopy(ackFrame(1000))
	skb := h.alloc.NewAck(f.Data, ether.HeaderLen)
	skb.Pooled = true
	skb.SetTemplateAcks([]uint32{3896, 6792})
	h.drv.Transmit(skb)
	if len(sent) != 3 {
		t.Fatalf("sent %d frames, want 3", len(sent))
	}
	for i, s := range sent {
		if !s.Pooled {
			t.Errorf("frame %d left without pool ownership", i)
		}
	}
	// The wire owns all three buffers: freeing the SKB released none.
	if pool.Len() != 0 {
		t.Errorf("%d buffers released at transmit", pool.Len())
	}
	want, err := ackoff.Expand(ackFrame(1000), ether.HeaderLen, []uint32{3896, 6792})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if !bytes.Equal(sent[i+1].Data, w) {
			t.Errorf("pooled expansion %d differs from ackoff.Expand", i)
		}
	}
}
