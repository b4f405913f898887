// Package packet builds and dissects complete Ethernet/IPv4/TCP frames.
// It is the single frame-construction path shared by the sender machines,
// the TCP endpoint's transmit side, and the test suites.
package packet

import (
	"encoding/binary"
	"fmt"

	"repro/internal/checksum"
	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/tcpwire"
)

// TCPSpec describes one TCP/IPv4/Ethernet frame to build.
type TCPSpec struct {
	SrcMAC, DstMAC   ether.Addr
	SrcIP, DstIP     ipv4.Addr
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	HasTS            bool
	TSVal, TSEcr     uint32
	// SACKBlocks emits a SACK option after the timestamp (RFC 2018
	// NOP,NOP,TS + NOP,NOP,SACK layout); at most tcpwire.MaxSACKBlocks
	// blocks fit beside a timestamp. Ignored when RawTCPOptions is set.
	SACKBlocks []tcpwire.SACKBlock
	// Payload is the segment payload (Build copies it; BuildInto expects
	// it already in the frame and ignores this field).
	Payload []byte
	IPID    uint16
	TTL     uint8

	// Fault/feature injection for tests and rule coverage:

	// IPOptions adds raw IP options (padded to 32 bits).
	IPOptions []byte
	// MF/FragOffset mark the packet as an IP fragment.
	MF         bool
	FragOffset int
	// RawTCPOptions overrides the TCP options bytes entirely (length
	// must be a multiple of 4); HasTS is ignored when set.
	RawTCPOptions []byte
	// CorruptTCPCsum flips a bit in the TCP checksum after computing it.
	CorruptTCPCsum bool
	// CorruptIPCsum flips a bit in the IP header checksum.
	CorruptIPCsum bool
}

// Build serializes the frame described by s.
func Build(s TCPSpec) ([]byte, error) {
	hl, err := HeaderLen(&s)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, hl+len(s.Payload))
	copy(frame[hl:], s.Payload)
	if err := BuildInto(frame, &s, checksum.Sum(s.Payload)); err != nil {
		return nil, err
	}
	return frame, nil
}

// HeaderLen returns the length of the Ethernet, IP and TCP headers s
// serializes to: the offset of the payload within the frame.
func HeaderLen(s *TCPSpec) (int, error) {
	tcpLen := tcpwire.MinHeaderLen
	switch {
	case s.RawTCPOptions != nil:
		if len(s.RawTCPOptions)%4 != 0 {
			return 0, fmt.Errorf("packet: TCP options length %d not 32-bit aligned", len(s.RawTCPOptions))
		}
		tcpLen += len(s.RawTCPOptions)
	case len(s.SACKBlocks) > 0:
		tcpLen += tcpwire.OptionsLen(s.HasTS, len(s.SACKBlocks))
	case s.HasTS:
		tcpLen = tcpwire.TimestampHeaderLen
	}
	ih := ipv4.Header{Options: s.IPOptions}
	return ether.HeaderLen + ih.Len() + tcpLen, nil
}

// BuildInto serializes the headers described by s into frame and sets both
// checksums. The payload must already be in place: frame is exactly
// HeaderLen(s) bytes of headers followed by the payload, and payloadSum is
// checksum.Sum of that payload, so a fill that computes the sum as it
// writes (sim.PatternPayloadSum) spares the checksum a second pass over
// the bytes. s.Payload is ignored. The result is byte-identical to Build's.
func BuildInto(frame []byte, s *TCPSpec, payloadSum uint16) error {
	hl, err := HeaderLen(s)
	if err != nil {
		return err
	}
	if len(frame) < hl {
		return fmt.Errorf("packet: frame of %d bytes cannot hold %d header bytes", len(frame), hl)
	}
	th := tcpwire.Header{
		SrcPort: s.SrcPort,
		DstPort: s.DstPort,
		Seq:     s.Seq,
		Ack:     s.Ack,
		Flags:   s.Flags,
		Window:  s.Window,
	}
	opts := s.RawTCPOptions != nil || len(s.SACKBlocks) > 0
	if !opts && s.HasTS {
		th.HasTimestamp = true
		th.TSVal = s.TSVal
		th.TSEcr = s.TSEcr
	}

	ih := ipv4.Header{
		IHL:        ipv4.MinHeaderLen + len(s.IPOptions),
		ID:         s.IPID,
		DF:         !s.MF && s.FragOffset == 0,
		MF:         s.MF,
		FragOffset: s.FragOffset,
		TTL:        s.TTL,
		Proto:      ipv4.ProtoTCP,
		Src:        s.SrcIP,
		Dst:        s.DstIP,
		Options:    s.IPOptions,
	}
	if ih.TTL == 0 {
		ih.TTL = 64
	}
	ipLen := ih.Len()
	ih.TotalLen = len(frame) - ether.HeaderLen
	if ih.TotalLen > 0xffff {
		return fmt.Errorf("packet: datagram too large: %d", ih.TotalLen)
	}

	eh := ether.Header{Dst: s.DstMAC, Src: s.SrcMAC, Type: ether.TypeIPv4}
	if err := eh.Put(frame); err != nil {
		return err
	}
	l3 := frame[ether.HeaderLen:]
	if err := ih.Put(l3); err != nil {
		return err
	}
	seg := l3[ipLen:]
	tcpLen := hl - ether.HeaderLen - ipLen
	if err := th.Put(seg); err != nil {
		return err
	}
	if opts {
		seg[12] = byte(tcpLen/4) << 4
		if s.RawTCPOptions != nil {
			copy(seg[tcpwire.MinHeaderLen:tcpLen], s.RawTCPOptions)
		} else {
			tcpwire.AppendOptions(seg[tcpwire.MinHeaderLen:tcpwire.MinHeaderLen], s.HasTS, s.TSVal, s.TSEcr, s.SACKBlocks)
		}
	}
	// The checksum field is zero after Put. The header length is a multiple
	// of four, so the payload's words align with the segment's and its sum
	// combines in without re-reading a byte.
	sum := checksum.Combine(
		checksum.PseudoHeaderSum([4]byte(ih.Src), [4]byte(ih.Dst), ipv4.ProtoTCP, len(seg)),
		checksum.Combine(checksum.Sum(seg[:tcpLen]), payloadSum))
	binary.BigEndian.PutUint16(seg[tcpwire.OffChecksum:], ^sum)
	if s.CorruptTCPCsum {
		seg[tcpwire.OffChecksum] ^= 0x01
	}
	if s.CorruptIPCsum {
		l3[10] ^= 0x01
	}
	return nil
}

// MustBuild is Build for specs known valid at compile time; it panics on
// error and is intended for tests and fixed-format senders.
func MustBuild(s TCPSpec) []byte {
	b, err := Build(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Parsed is a fully dissected TCP frame.
type Parsed struct {
	Eth     ether.Header
	IP      ipv4.Header
	TCP     tcpwire.Header
	Payload []byte
	// L4Offset is the TCP header's offset within the frame.
	L4Offset int
}

// Parse dissects a serialized frame built by Build (or received from the
// simulated wire).
func Parse(frame []byte) (Parsed, error) {
	var p Parsed
	eh, err := ether.Parse(frame)
	if err != nil {
		return p, err
	}
	if eh.Type != ether.TypeIPv4 {
		return p, fmt.Errorf("packet: not IPv4: type %#04x", eh.Type)
	}
	l3 := frame[ether.HeaderLen:]
	ih, err := ipv4.Parse(l3)
	if err != nil {
		return p, err
	}
	if ih.Proto != ipv4.ProtoTCP {
		return p, fmt.Errorf("packet: not TCP: proto %d", ih.Proto)
	}
	seg := l3[ih.IHL:ih.TotalLen]
	th, err := tcpwire.Parse(seg)
	if err != nil {
		return p, err
	}
	p.Eth = eh
	p.IP = ih
	p.TCP = th
	p.Payload = seg[th.DataOff:]
	p.L4Offset = ether.HeaderLen + ih.IHL
	return p, nil
}
