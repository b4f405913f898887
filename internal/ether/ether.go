// Package ether implements Ethernet II framing for the simulated wire.
package ether

import (
	"encoding/binary"
	"fmt"
)

// HeaderLen is the length of an Ethernet II header.
const HeaderLen = 14

// MTU is the standard Ethernet payload limit the paper's experiments use.
const MTU = 1500

// Wire overheads used by the link model to convert payload rates to wire
// occupancy: preamble (7) + SFD (1) + FCS (4) + inter-frame gap (12).
const (
	FCSLen      = 4
	PreambleLen = 8
	IFGLen      = 12
	// PerFrameOverhead is the non-payload wire time per frame in bytes.
	PerFrameOverhead = PreambleLen + FCSLen + IFGLen
)

// EtherType values.
const (
	TypeIPv4 uint16 = 0x0800
	TypeARP  uint16 = 0x0806
)

// Addr is a 48-bit MAC address.
type Addr [6]byte

// String renders the address in canonical colon-separated form.
func (a Addr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// Header is a parsed Ethernet II header.
type Header struct {
	Dst  Addr
	Src  Addr
	Type uint16
}

// Parse decodes the Ethernet header at the front of b.
func Parse(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("ether: frame too short: %d bytes", len(b))
	}
	var h Header
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.Type = binary.BigEndian.Uint16(b[12:14])
	return h, nil
}

// Put encodes the header into b, which must have room for HeaderLen bytes.
func (h Header) Put(b []byte) error {
	if len(b) < HeaderLen {
		return fmt.Errorf("ether: buffer too short: %d bytes", len(b))
	}
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	binary.BigEndian.PutUint16(b[12:14], h.Type)
	return nil
}

// Payload returns the frame payload following the Ethernet header.
func Payload(b []byte) ([]byte, error) {
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("ether: frame too short: %d bytes", len(b))
	}
	return b[HeaderLen:], nil
}
