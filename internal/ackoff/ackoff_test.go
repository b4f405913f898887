package ackoff

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/packet"
	"repro/internal/tcpwire"
)

func ackTemplate(ack uint32, ipid uint16) []byte {
	return packet.MustBuild(packet.TCPSpec{
		SrcIP: ipv4.Addr{10, 0, 0, 2}, DstIP: ipv4.Addr{10, 0, 0, 1},
		SrcPort: 44000, DstPort: 5001,
		Seq: 777, Ack: ack,
		Flags: tcpwire.FlagACK, Window: 65535,
		HasTS: true, TSVal: 42, TSEcr: 41,
		IPID: ipid,
	})
}

func TestExpandProducesPatchedAcks(t *testing.T) {
	tpl := ackTemplate(1000, 9)
	extras := []uint32{3896, 6792, 9688}
	out, err := Expand(tpl, ether.HeaderLen, extras)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("expanded %d, want 3", len(out))
	}
	for i, frame := range out {
		p, err := packet.Parse(frame)
		if err != nil {
			t.Fatalf("ack %d unparseable: %v", i, err)
		}
		if p.TCP.Ack != extras[i] {
			t.Errorf("ack %d = %d, want %d", i, p.TCP.Ack, extras[i])
		}
		if p.IP.ID != 9+uint16(i)+1 {
			t.Errorf("ack %d IP ID = %d, want %d", i, p.IP.ID, 10+i)
		}
		l3 := frame[ether.HeaderLen:]
		if !ipv4.VerifyChecksum(l3) {
			t.Errorf("ack %d: IP checksum invalid", i)
		}
		ih, _ := ipv4.Parse(l3)
		if !tcpwire.VerifyChecksum(l3[ih.IHL:ih.TotalLen], ih.Src, ih.Dst) {
			t.Errorf("ack %d: TCP checksum invalid", i)
		}
	}
}

func TestExpandMatchesIndividuallyBuiltPackets(t *testing.T) {
	// The §4.2 contract: an expanded ACK must be byte-identical to the
	// ACK the stack would have built directly (same timestamps assumed).
	extras := []uint32{2896, 5792}
	out, err := Expand(ackTemplate(1000, 20), ether.HeaderLen, extras)
	if err != nil {
		t.Fatal(err)
	}
	for i, ack := range extras {
		want := ackTemplate(ack, 20+uint16(i)+1)
		if !bytes.Equal(out[i], want) {
			t.Errorf("expanded ack %d differs from individually built packet", i)
		}
	}
}

func TestExpandDoesNotMutateTemplate(t *testing.T) {
	tpl := ackTemplate(500, 1)
	orig := append([]byte{}, tpl...)
	if _, err := Expand(tpl, ether.HeaderLen, []uint32{600, 700}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tpl, orig) {
		t.Error("Expand mutated the template frame")
	}
}

func TestExpandEmptyExtras(t *testing.T) {
	out, err := Expand(ackTemplate(1, 1), ether.HeaderLen, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("expanded %d from empty extras", len(out))
	}
}

func TestExpandRejectsMalformed(t *testing.T) {
	if _, err := Expand(make([]byte, 10), ether.HeaderLen, []uint32{1}); err == nil {
		t.Error("expected error for short template")
	}
	if _, err := Expand(ackTemplate(1, 1), -1, []uint32{1}); err == nil {
		t.Error("expected error for negative offset")
	}
	bad := ackTemplate(1, 1)
	bad[ether.HeaderLen] = 0x41 // IHL 4: malformed
	if _, err := Expand(bad, ether.HeaderLen, []uint32{1}); err == nil {
		t.Error("expected error for malformed IP header")
	}
}

// Property: every expanded ACK checksums correctly for arbitrary ACK values
// and template fields.
func TestExpandChecksums_Quick(t *testing.T) {
	f := func(baseAck uint32, ipid uint16, extras []uint32) bool {
		if len(extras) > 32 {
			extras = extras[:32]
		}
		out, err := Expand(ackTemplate(baseAck, ipid), ether.HeaderLen, extras)
		if err != nil {
			return false
		}
		for _, frame := range out {
			l3 := frame[ether.HeaderLen:]
			if !ipv4.VerifyChecksum(l3) {
				return false
			}
			ih, err := ipv4.Parse(l3)
			if err != nil {
				return false
			}
			if !tcpwire.VerifyChecksum(l3[ih.IHL:ih.TotalLen], ih.Src, ih.Dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAckoffExpand measures the driver's per-ACK step of a template
// expansion: one ExpandTo of a timestamped ACK into a reused buffer.
func BenchmarkAckoffExpand(b *testing.B) {
	tpl := ackTemplate(1000, 9)
	dst := make([]byte, len(tpl))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if err := ExpandTo(dst, tpl, ether.HeaderLen, i&15, 1000+uint32(i)*1448); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
