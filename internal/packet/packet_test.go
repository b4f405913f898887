package packet

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/checksum"
	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/tcpwire"
)

func baseSpec() TCPSpec {
	return TCPSpec{
		SrcMAC:  ether.Addr{0, 1, 2, 3, 4, 5},
		DstMAC:  ether.Addr{6, 7, 8, 9, 10, 11},
		SrcIP:   ipv4.Addr{10, 0, 0, 1},
		DstIP:   ipv4.Addr{10, 0, 0, 2},
		SrcPort: 5001, DstPort: 44000,
		Seq: 1000, Ack: 2000,
		Flags:  tcpwire.FlagACK,
		Window: 65535,
		HasTS:  true, TSVal: 77, TSEcr: 88,
		Payload: []byte("hello tcp receive world"),
		IPID:    42,
	}
}

func TestBuildParseRoundTrip(t *testing.T) {
	s := baseSpec()
	frame := MustBuild(s)
	p, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.Eth.Src != s.SrcMAC || p.Eth.Dst != s.DstMAC {
		t.Error("MAC mismatch")
	}
	if p.IP.Src != s.SrcIP || p.IP.Dst != s.DstIP || p.IP.ID != s.IPID {
		t.Error("IP mismatch")
	}
	if p.TCP.SrcPort != s.SrcPort || p.TCP.DstPort != s.DstPort ||
		p.TCP.Seq != s.Seq || p.TCP.Ack != s.Ack {
		t.Error("TCP mismatch")
	}
	if !p.TCP.TimestampOnly || p.TCP.TSVal != 77 || p.TCP.TSEcr != 88 {
		t.Errorf("timestamp mismatch: %+v", p.TCP)
	}
	if !bytes.Equal(p.Payload, s.Payload) {
		t.Errorf("payload mismatch: %q", p.Payload)
	}
	if p.L4Offset != ether.HeaderLen+ipv4.MinHeaderLen {
		t.Errorf("L4Offset = %d", p.L4Offset)
	}
}

func TestBuildChecksumsValid(t *testing.T) {
	frame := MustBuild(baseSpec())
	l3 := frame[ether.HeaderLen:]
	if !ipv4.VerifyChecksum(l3) {
		t.Error("IP checksum invalid")
	}
	ih, _ := ipv4.Parse(l3)
	if !tcpwire.VerifyChecksum(l3[ih.IHL:ih.TotalLen], ih.Src, ih.Dst) {
		t.Error("TCP checksum invalid")
	}
}

func TestBuildCorruption(t *testing.T) {
	s := baseSpec()
	s.CorruptTCPCsum = true
	frame := MustBuild(s)
	l3 := frame[ether.HeaderLen:]
	ih, _ := ipv4.Parse(l3)
	if tcpwire.VerifyChecksum(l3[ih.IHL:ih.TotalLen], ih.Src, ih.Dst) {
		t.Error("corrupted TCP checksum verifies")
	}
	if !ipv4.VerifyChecksum(l3) {
		t.Error("IP checksum should remain valid")
	}

	s = baseSpec()
	s.CorruptIPCsum = true
	frame = MustBuild(s)
	if ipv4.VerifyChecksum(frame[ether.HeaderLen:]) {
		t.Error("corrupted IP checksum verifies")
	}
}

func TestBuildIPOptions(t *testing.T) {
	s := baseSpec()
	s.IPOptions = []byte{0x94, 0x04, 0x00, 0x00}
	frame := MustBuild(s)
	p, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IP.HasOptions() {
		t.Error("IP options lost")
	}
	if !bytes.Equal(p.Payload, s.Payload) {
		t.Error("payload corrupted by IP options")
	}
}

func TestBuildFragment(t *testing.T) {
	s := baseSpec()
	s.MF = true
	s.FragOffset = 0
	frame := MustBuild(s)
	p, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IP.IsFragment() {
		t.Error("fragment flags lost")
	}
}

func TestBuildRawTCPOptions(t *testing.T) {
	s := baseSpec()
	s.RawTCPOptions = []byte{tcpwire.OptSACKPerm, 2, tcpwire.OptNOP, tcpwire.OptNOP}
	frame := MustBuild(s)
	p, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !p.TCP.OtherOptions {
		t.Error("raw options not detected as OtherOptions")
	}
	if !bytes.Equal(p.Payload, s.Payload) {
		t.Error("payload corrupted by raw options")
	}
}

func TestBuildRejectsMisalignedOptions(t *testing.T) {
	s := baseSpec()
	s.RawTCPOptions = []byte{1, 1, 1}
	if _, err := Build(s); err == nil {
		t.Error("expected error for misaligned TCP options")
	}
}

func TestBuildRejectsOversize(t *testing.T) {
	s := baseSpec()
	s.Payload = make([]byte, 70000)
	if _, err := Build(s); err == nil {
		t.Error("expected error for oversized datagram")
	}
}

func TestParseRejectsNonIP(t *testing.T) {
	frame := MustBuild(baseSpec())
	frame[12], frame[13] = 0x08, 0x06 // ARP
	if _, err := Parse(frame); err == nil {
		t.Error("expected error for non-IPv4 frame")
	}
}

func TestDefaultTTL(t *testing.T) {
	s := baseSpec()
	s.TTL = 0
	p, err := Parse(MustBuild(s))
	if err != nil {
		t.Fatal(err)
	}
	if p.IP.TTL != 64 {
		t.Errorf("TTL = %d, want default 64", p.IP.TTL)
	}
}

// Property: Build/Parse round-trips arbitrary field values, and checksums
// always verify for uncorrupted frames.
func TestRoundTrip_Quick(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, win uint16, tsval, tsecr uint32, payload []byte) bool {
		if len(payload) > 1448 {
			payload = payload[:1448]
		}
		s := baseSpec()
		s.SrcPort, s.DstPort = sp, dp
		s.Seq, s.Ack = seq, ack
		s.Window = win
		s.TSVal, s.TSEcr = tsval, tsecr
		s.Payload = payload
		frame, err := Build(s)
		if err != nil {
			return false
		}
		p, err := Parse(frame)
		if err != nil {
			return false
		}
		l3 := frame[ether.HeaderLen:]
		ih, _ := ipv4.Parse(l3)
		return p.TCP.Seq == seq && p.TCP.Ack == ack &&
			p.TCP.SrcPort == sp && p.TCP.DstPort == dp &&
			p.TCP.Window == win && bytes.Equal(p.Payload, payload) &&
			ipv4.VerifyChecksum(l3) &&
			tcpwire.VerifyChecksum(l3[ih.IHL:ih.TotalLen], ih.Src, ih.Dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBuildIntoMatchesBuild serializes each layout both ways — Build from
// a payload slice, BuildInto around a payload already in place with its
// sum supplied — into a buffer full of garbage: the frames must be equal
// byte for byte.
func TestBuildIntoMatchesBuild(t *testing.T) {
	payload := make([]byte, 1448)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	variants := map[string]func(*TCPSpec){
		"timestamp":  func(*TCPSpec) {},
		"no-options": func(s *TCPSpec) { s.HasTS = false },
		"odd-payload": func(s *TCPSpec) {
			s.Payload = payload[:333]
		},
		"empty": func(s *TCPSpec) { s.Payload = nil },
		"sack": func(s *TCPSpec) {
			s.Payload = nil
			s.SACKBlocks = []tcpwire.SACKBlock{{Start: 10, End: 20}, {Start: 30, End: 40}}
		},
		"sack-no-ts": func(s *TCPSpec) {
			s.HasTS, s.Payload = false, nil
			s.SACKBlocks = []tcpwire.SACKBlock{{Start: 1, End: 2}}
		},
		"raw-options": func(s *TCPSpec) { s.RawTCPOptions = []byte{1, 1, 1, 0} },
		"ip-options":  func(s *TCPSpec) { s.IPOptions = []byte{1, 1, 1, 0} },
		"corrupt":     func(s *TCPSpec) { s.CorruptTCPCsum, s.CorruptIPCsum = true, true },
	}
	for name, mutate := range variants {
		s := baseSpec()
		s.Payload = payload
		mutate(&s)
		want, err := Build(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hl, err := HeaderLen(&s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frame := bytes.Repeat([]byte{0xdb}, hl+len(s.Payload))
		copy(frame[hl:], s.Payload)
		if err := BuildInto(frame, &s, checksum.Sum(s.Payload)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: BuildInto differs from Build", name)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	s := baseSpec()
	s.Payload = make([]byte, 1448)
	b.SetBytes(1448)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Seq += 1448
		if _, err := Build(s); err != nil {
			b.Fatal(err)
		}
	}
}
