// Package ipv4 implements the IPv4 header codec used by the simulated
// stack. Receive Aggregation needs precise access to the header fields it
// validates and rewrites (paper §3.1-3.2): total length, fragmentation
// bits, options presence, and the header checksum.
package ipv4

import (
	"encoding/binary"
	"fmt"

	"repro/internal/checksum"
)

// MinHeaderLen is the length of an option-less IPv4 header.
const MinHeaderLen = 20

// MaxHeaderLen is the maximum IPv4 header length (IHL = 15).
const MaxHeaderLen = 60

// ProtoTCP is the IPv4 protocol number for TCP.
const ProtoTCP = 6

// Addr is an IPv4 address.
type Addr [4]byte

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Flag bits within the flags/fragment-offset field.
const (
	flagDF = 0x4000
	flagMF = 0x2000
)

// Header is a parsed IPv4 header.
type Header struct {
	// IHL is the header length in bytes (20..60).
	IHL int
	// TOS is the type-of-service byte.
	TOS uint8
	// TotalLen is the datagram length including the header.
	TotalLen int
	// ID is the identification field.
	ID uint16
	// DF and MF are the don't-fragment and more-fragments flags.
	DF, MF bool
	// FragOffset is the fragment offset in bytes.
	FragOffset int
	// TTL is the time to live.
	TTL uint8
	// Proto is the payload protocol.
	Proto uint8
	// Checksum is the header checksum as found on the wire.
	Checksum uint16
	// Src and Dst are the endpoint addresses.
	Src, Dst Addr
	// Options holds raw option bytes (empty in the common case; packets
	// with options are never aggregated, §3.1).
	Options []byte
}

// HasOptions reports whether the header carries any IP options.
func (h *Header) HasOptions() bool { return h.IHL > MinHeaderLen }

// IsFragment reports whether the packet is part of a fragmented datagram.
func (h *Header) IsFragment() bool { return h.MF || h.FragOffset != 0 }

// Parse decodes the IPv4 header at the front of b. It validates structural
// invariants (version, IHL, total length) but does not verify the checksum;
// callers decide when to pay that cost (the aggregation engine verifies it
// explicitly, §3.1).
func Parse(b []byte) (Header, error) {
	h, err := ParseHeaderOnly(b)
	if err != nil {
		return h, err
	}
	if h.TotalLen > len(b) {
		return Header{}, fmt.Errorf("ipv4: total length %d exceeds buffer %d", h.TotalLen, len(b))
	}
	return h, nil
}

// ParseHeaderOnly decodes the IPv4 header without requiring the buffer to
// contain the full datagram. Aggregated host packets need this: their
// rewritten total length covers payload held in chained fragments beyond
// the linear buffer (§3.2).
func ParseHeaderOnly(b []byte) (Header, error) {
	if len(b) < MinHeaderLen {
		return Header{}, fmt.Errorf("ipv4: packet too short: %d bytes", len(b))
	}
	if v := b[0] >> 4; v != 4 {
		return Header{}, fmt.Errorf("ipv4: bad version %d", v)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < MinHeaderLen {
		return Header{}, fmt.Errorf("ipv4: bad IHL %d", ihl)
	}
	if len(b) < ihl {
		return Header{}, fmt.Errorf("ipv4: truncated header: have %d, IHL %d", len(b), ihl)
	}
	h := Header{
		IHL:      ihl,
		TOS:      b[1],
		TotalLen: int(binary.BigEndian.Uint16(b[2:4])),
		ID:       binary.BigEndian.Uint16(b[4:6]),
		TTL:      b[8],
		Proto:    b[9],
		Checksum: binary.BigEndian.Uint16(b[10:12]),
	}
	ff := binary.BigEndian.Uint16(b[6:8])
	h.DF = ff&flagDF != 0
	h.MF = ff&flagMF != 0
	h.FragOffset = int(ff&0x1fff) * 8
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if ihl > MinHeaderLen {
		h.Options = b[MinHeaderLen:ihl]
	}
	if h.TotalLen < ihl {
		return Header{}, fmt.Errorf("ipv4: total length %d below header length %d", h.TotalLen, ihl)
	}
	return h, nil
}

// Put encodes the header into b (which must have room for h.Len() bytes),
// computing and inserting the header checksum.
func (h *Header) Put(b []byte) error {
	n := h.Len()
	if len(b) < n {
		return fmt.Errorf("ipv4: buffer too short: %d < %d", len(b), n)
	}
	if h.TotalLen < n || h.TotalLen > 0xffff {
		return fmt.Errorf("ipv4: bad total length %d", h.TotalLen)
	}
	b[0] = 0x40 | byte(n/4)
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(h.TotalLen))
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	var ff uint16
	if h.DF {
		ff |= flagDF
	}
	if h.MF {
		ff |= flagMF
	}
	if h.FragOffset%8 != 0 {
		return fmt.Errorf("ipv4: fragment offset %d not a multiple of 8", h.FragOffset)
	}
	ff |= uint16(h.FragOffset/8) & 0x1fff
	binary.BigEndian.PutUint16(b[6:8], ff)
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	copy(b[MinHeaderLen:n], h.Options)
	cs := checksum.Checksum(b[:n])
	binary.BigEndian.PutUint16(b[10:12], cs)
	h.Checksum = cs
	return nil
}

// Len returns the encoded header length for h (20 plus padded options).
func (h *Header) Len() int {
	n := MinHeaderLen + len(h.Options)
	if n%4 != 0 {
		n += 4 - n%4
	}
	if n > MaxHeaderLen {
		n = MaxHeaderLen
	}
	return n
}

// VerifyChecksum reports whether the header bytes at the front of b carry a
// valid header checksum. b must hold at least the full header.
func VerifyChecksum(b []byte) bool {
	if len(b) < MinHeaderLen {
		return false
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < MinHeaderLen || len(b) < ihl {
		return false
	}
	return checksum.Verify(b[:ihl])
}

// SetTotalLen rewrites the total-length field in a serialized header and
// incrementally updates the header checksum (used when rewriting the
// aggregated packet's header, §3.2).
func SetTotalLen(b []byte, totalLen int) error {
	if len(b) < MinHeaderLen {
		return fmt.Errorf("ipv4: packet too short: %d bytes", len(b))
	}
	if totalLen < MinHeaderLen || totalLen > 0xffff {
		return fmt.Errorf("ipv4: bad total length %d", totalLen)
	}
	old := binary.BigEndian.Uint16(b[2:4])
	cs := binary.BigEndian.Uint16(b[10:12])
	binary.BigEndian.PutUint16(b[2:4], uint16(totalLen))
	binary.BigEndian.PutUint16(b[10:12], checksum.Update16(cs, old, uint16(totalLen)))
	return nil
}
