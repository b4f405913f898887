// Package tcpwire implements the TCP header codec, including the option
// kinds the receive path must recognize. Receive Aggregation only coalesces
// segments whose sole TCP option is the timestamp option (paper §3.1), so
// the codec distinguishes "timestamp-only" layouts from everything else.
package tcpwire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/checksum"
	"repro/internal/ipv4"
)

// MinHeaderLen is the length of an option-less TCP header.
const MinHeaderLen = 20

// MaxHeaderLen is the maximum TCP header length (data offset = 15).
const MaxHeaderLen = 60

// TimestampOptLen is the length of the timestamp option (kind+len+2×32 bit).
const TimestampOptLen = 10

// TimestampHeaderLen is the header length of a segment carrying only the
// timestamp option with standard NOP-NOP padding, as Linux emits it.
const TimestampHeaderLen = MinHeaderLen + 12

// Flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Option kinds.
const (
	OptEnd        = 0
	OptNOP        = 1
	OptMSS        = 2
	OptWScale     = 3
	OptSACKPerm   = 4
	OptSACK       = 5
	OptTimestamps = 8
)

// SACKBlock is one selective-acknowledgment block (RFC 2018): the
// receiver has queued [Start, End) beyond the cumulative ACK.
type SACKBlock struct {
	Start, End uint32
}

// MaxSACKBlocks is the block budget when the timestamp option shares the
// options area: NOP,NOP,TS (12) + NOP,NOP,SACK(2+8·3) (28) = 40 bytes.
const MaxSACKBlocks = 3

// maxAreaSACKBlocks is the most blocks any 40-byte options area can hold:
// NOP,NOP,SACK(2+8·4) alone, or split over several SACK options.
const maxAreaSACKBlocks = 4

// Header is a parsed TCP header.
type Header struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	// DataOff is the header length in bytes (20..60).
	DataOff int
	Flags   uint8
	Window  uint16
	// Checksum is the transport checksum as found on the wire.
	Checksum uint16
	Urgent   uint16
	// HasTimestamp indicates a parsed timestamp option.
	HasTimestamp bool
	TSVal, TSEcr uint32
	// sack[:nsack] holds the parsed selective-acknowledgment blocks
	// (SACKBlocks): a fixed array, so parsing a SACK-bearing ACK does not
	// allocate.
	sack  [maxAreaSACKBlocks]SACKBlock
	nsack uint8
	// TimestampOnly indicates the options area contains exactly the
	// NOP,NOP,Timestamp layout and nothing else.
	TimestampOnly bool
	// OtherOptions indicates at least one non-NOP, non-timestamp option.
	OtherOptions bool
	// rawOptions retains the option bytes for serialization round-trips.
	rawOptions []byte
}

// Parse decodes the TCP header at the front of b.
func Parse(b []byte) (Header, error) {
	if len(b) < MinHeaderLen {
		return Header{}, fmt.Errorf("tcpwire: segment too short: %d bytes", len(b))
	}
	off := int(b[12]>>4) * 4
	if off < MinHeaderLen {
		return Header{}, fmt.Errorf("tcpwire: bad data offset %d", off)
	}
	if len(b) < off {
		return Header{}, fmt.Errorf("tcpwire: truncated header: have %d, offset %d", len(b), off)
	}
	h := Header{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Seq:      binary.BigEndian.Uint32(b[4:8]),
		Ack:      binary.BigEndian.Uint32(b[8:12]),
		DataOff:  off,
		Flags:    b[13] & 0x3f,
		Window:   binary.BigEndian.Uint16(b[14:16]),
		Checksum: binary.BigEndian.Uint16(b[16:18]),
		Urgent:   binary.BigEndian.Uint16(b[18:20]),
	}
	if off > MinHeaderLen {
		h.rawOptions = b[MinHeaderLen:off]
		if err := h.parseOptions(); err != nil {
			return Header{}, err
		}
	} else {
		h.TimestampOnly = false
	}
	return h, nil
}

// parseOptions walks the option bytes, recording timestamp values and
// whether anything beyond NOP/timestamp appears.
func (h *Header) parseOptions() error {
	opts := h.rawOptions
	sawTS := false
	other := false
	i := 0
	for i < len(opts) {
		switch opts[i] {
		case OptEnd:
			i = len(opts)
		case OptNOP:
			i++
		default:
			if i+1 >= len(opts) {
				return fmt.Errorf("tcpwire: truncated option at %d", i)
			}
			l := int(opts[i+1])
			if l < 2 || i+l > len(opts) {
				return fmt.Errorf("tcpwire: bad option length %d at %d", l, i)
			}
			switch {
			case opts[i] == OptTimestamps && l == TimestampOptLen:
				h.HasTimestamp = true
				h.TSVal = binary.BigEndian.Uint32(opts[i+2 : i+6])
				h.TSEcr = binary.BigEndian.Uint32(opts[i+6 : i+10])
				sawTS = true
			case opts[i] == OptSACK && l >= 2 && (l-2)%8 == 0:
				for j := i + 2; j < i+l && int(h.nsack) < len(h.sack); j += 8 {
					h.sack[h.nsack] = SACKBlock{
						Start: binary.BigEndian.Uint32(opts[j : j+4]),
						End:   binary.BigEndian.Uint32(opts[j+4 : j+8]),
					}
					h.nsack++
				}
				other = true
			default:
				other = true
			}
			i += l
		}
	}
	h.OtherOptions = other
	h.TimestampOnly = sawTS && !other
	return nil
}

// SACKBlocks returns the parsed selective-acknowledgment blocks, most
// recently changed first (RFC 2018 ordering); empty when absent. The slice
// aliases h.
func (h *Header) SACKBlocks() []SACKBlock { return h.sack[:h.nsack] }

// SetSACKBlocks sets the blocks SACKBlocks returns, keeping at most the
// four an options area holds. Put does not serialize them (AppendOptions
// lays SACK blocks on the wire).
func (h *Header) SetSACKBlocks(blocks []SACKBlock) {
	h.nsack = uint8(copy(h.sack[:], blocks))
}

// Len returns the encoded header length.
func (h *Header) Len() int {
	if h.HasTimestamp && h.rawOptions == nil {
		return TimestampHeaderLen
	}
	n := MinHeaderLen + len(h.rawOptions)
	if n%4 != 0 {
		n += 4 - n%4
	}
	return n
}

// Put encodes the header into b (which must have room for h.Len() bytes)
// with a zero checksum field; call SetChecksum or Finish afterwards. A
// header constructed in Go code (rawOptions nil) with HasTimestamp set is
// emitted with the canonical NOP,NOP,TS layout.
func (h *Header) Put(b []byte) error {
	n := h.Len()
	if n > MaxHeaderLen {
		return fmt.Errorf("tcpwire: header too long: %d", n)
	}
	if len(b) < n {
		return fmt.Errorf("tcpwire: buffer too short: %d < %d", len(b), n)
	}
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = byte(n/4) << 4
	b[13] = h.Flags & 0x3f
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	b[16], b[17] = 0, 0
	binary.BigEndian.PutUint16(b[18:20], h.Urgent)
	switch {
	case h.rawOptions != nil:
		copy(b[MinHeaderLen:n], h.rawOptions)
	case h.HasTimestamp:
		b[20], b[21] = OptNOP, OptNOP
		b[22], b[23] = OptTimestamps, TimestampOptLen
		binary.BigEndian.PutUint32(b[24:28], h.TSVal)
		binary.BigEndian.PutUint32(b[28:32], h.TSEcr)
	}
	return nil
}

// sackBudget is the number of SACK blocks that fit beside the timestamp
// option (or alone, when there is none).
func sackBudget(hasTS bool) int {
	if hasTS {
		return MaxSACKBlocks
	}
	return maxAreaSACKBlocks
}

// OptionsLen returns the length of AppendOptions' layout for a timestamp
// (when hasTS) and nblocks SACK blocks: a multiple of four, 0 for neither.
func OptionsLen(hasTS bool, nblocks int) int {
	nblocks = min(nblocks, sackBudget(hasTS))
	n := 0
	if hasTS {
		n += 2 + TimestampOptLen
	}
	if nblocks > 0 {
		n += 2 + 2 + 8*nblocks
	}
	return n
}

// AppendOptions appends the canonical option layout an ACK carrying
// timestamp and/or SACK blocks uses to dst: NOP,NOP,TS then NOP,NOP,SACK.
// At most MaxSACKBlocks blocks fit beside a timestamp (the 40-byte options
// area is exactly full at three); excess blocks are dropped, never
// truncated mid-block. Nothing is appended when neither option is
// requested. Appending into a zero-length slice of a frame writes the
// options in place.
func AppendOptions(dst []byte, hasTS bool, tsVal, tsEcr uint32, blocks []SACKBlock) []byte {
	if max := sackBudget(hasTS); len(blocks) > max {
		blocks = blocks[:max]
	}
	if hasTS {
		dst = append(dst, OptNOP, OptNOP, OptTimestamps, TimestampOptLen)
		dst = binary.BigEndian.AppendUint32(dst, tsVal)
		dst = binary.BigEndian.AppendUint32(dst, tsEcr)
	}
	if len(blocks) > 0 {
		dst = append(dst, OptNOP, OptNOP, OptSACK, byte(2+8*len(blocks)))
		for _, blk := range blocks {
			dst = binary.BigEndian.AppendUint32(dst, blk.Start)
			dst = binary.BigEndian.AppendUint32(dst, blk.End)
		}
	}
	return dst
}

// SetChecksum computes and inserts the transport checksum for the serialized
// segment seg (header+payload) under the given IPv4 pseudo-header.
func SetChecksum(seg []byte, src, dst ipv4.Addr) error {
	if len(seg) < MinHeaderLen {
		return fmt.Errorf("tcpwire: segment too short: %d bytes", len(seg))
	}
	seg[16], seg[17] = 0, 0
	cs := checksum.TransportChecksum([4]byte(src), [4]byte(dst), ipv4.ProtoTCP, seg)
	binary.BigEndian.PutUint16(seg[16:18], cs)
	return nil
}

// VerifyChecksum reports whether the serialized segment verifies under the
// pseudo-header. This is what the NIC's receive checksum offload computes.
func VerifyChecksum(seg []byte, src, dst ipv4.Addr) bool {
	if len(seg) < MinHeaderLen {
		return false
	}
	return checksum.VerifyTransport([4]byte(src), [4]byte(dst), ipv4.ProtoTCP, seg)
}

// Field offsets within a serialized TCP header, used by the ACK-offload
// expansion and the aggregation header rewrite.
const (
	OffSeq      = 4
	OffAck      = 8
	OffWindow   = 14
	OffChecksum = 16
	// OffTSVal is the TSVal offset under the canonical NOP,NOP,TS layout.
	OffTSVal = 24
	// OffTSEcr is the TSEcr offset under the canonical layout.
	OffTSEcr = 28
)

// PatchAck rewrites the acknowledgment number of a serialized TCP segment
// in place and incrementally updates its checksum (RFC 1624). This is the
// driver-side operation of Acknowledgment Offload (paper §4.2).
func PatchAck(seg []byte, newAck uint32) error {
	if len(seg) < MinHeaderLen {
		return fmt.Errorf("tcpwire: segment too short: %d bytes", len(seg))
	}
	old := binary.BigEndian.Uint32(seg[OffAck:])
	if old == newAck {
		return nil
	}
	cs := binary.BigEndian.Uint16(seg[OffChecksum:])
	binary.BigEndian.PutUint32(seg[OffAck:], newAck)
	binary.BigEndian.PutUint16(seg[OffChecksum:], checksum.Update32(cs, old, newAck))
	return nil
}
