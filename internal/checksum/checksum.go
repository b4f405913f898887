// Package checksum implements the Internet checksum (RFC 1071) and its
// incremental update (RFC 1624).
//
// The receive path uses it to verify and rewrite IP headers when building
// aggregated packets (paper §3.2), and Acknowledgment Offload uses the
// incremental form to patch the TCP checksum of each ACK generated from a
// template without touching the rest of the packet (paper §4.2).
package checksum

import (
	"encoding/binary"
	"math/bits"
)

// Sum computes the one's-complement sum of b folded to 16 bits, without the
// final complement. Odd-length buffers are padded with a zero byte, as
// specified by RFC 1071.
//
// The loop adds big-endian 8-byte words into a 64-bit accumulator with
// end-around carry (RFC 1071 §2(C): the sum is independent of word size
// because 2^64 ≡ 1 mod 2^16-1). The result is exactly the 16-bit loop's:
// both are congruent mod 0xffff and both are zero only for all-zero input.
func Sum(b []byte) uint16 {
	var acc, carry uint64
	for len(b) >= 32 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(b), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(b[8:]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(b[16:]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(b[24:]), carry)
		b = b[32:]
	}
	for len(b) >= 8 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(b), carry)
		b = b[8:]
	}
	if len(b) >= 4 {
		acc, carry = bits.Add64(acc, uint64(binary.BigEndian.Uint32(b)), carry)
		b = b[4:]
	}
	if len(b) >= 2 {
		acc, carry = bits.Add64(acc, uint64(binary.BigEndian.Uint16(b)), carry)
		b = b[2:]
	}
	if len(b) == 1 {
		acc, carry = bits.Add64(acc, uint64(b[0])<<8, carry)
	}
	return Fold64(acc, carry)
}

// Fold64 reduces a 64-bit one's-complement accumulator plus its pending
// carry-out to 16 bits with end-around carry. Callers that sum 8-byte words
// themselves (the transmit path's fused payload fill) finish with it.
func Fold64(acc, carry uint64) uint16 {
	// Absorbing the carry can carry out again only when acc wraps to zero,
	// so the second end-around add cannot overflow.
	acc, carry = bits.Add64(acc, 0, carry)
	acc += carry
	s := acc>>32 + acc&0xffffffff
	for s > 0xffff {
		s = s>>16 + s&0xffff
	}
	return uint16(s)
}

// Checksum computes the Internet checksum of b: the one's complement of the
// one's-complement sum.
func Checksum(b []byte) uint16 {
	return ^Sum(b)
}

// Combine adds two partial one's-complement sums (as returned by Sum).
func Combine(a, b uint16) uint16 {
	return fold(uint32(a) + uint32(b))
}

// fold reduces a 32-bit accumulator to 16 bits with end-around carry.
func fold(sum uint32) uint16 {
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return uint16(sum)
}

// Verify reports whether a buffer that embeds its own checksum field sums to
// the all-ones pattern, i.e. checksums correctly (RFC 1071 §4.1).
func Verify(b []byte) bool {
	return Sum(b) == 0xffff
}

// Update16 incrementally updates checksum old when a 16-bit field of the
// covered data changes from oldVal to newVal, per RFC 1624 (eqn. 3):
//
//	HC' = ~(~HC + ~m + m')
//
// It returns the new checksum. Using the RFC 1624 form (rather than the
// original RFC 1071 incremental equation) avoids the -0/+0 ambiguity.
func Update16(old, oldVal, newVal uint16) uint16 {
	sum := uint32(^old&0xffff) + uint32(^oldVal&0xffff) + uint32(newVal)
	return ^fold(sum)
}

// Update32 incrementally updates checksum old when an aligned 32-bit field
// changes from oldVal to newVal. TCP sequence and acknowledgment numbers are
// such fields; this is the core of ACK-template expansion.
func Update32(old uint16, oldVal, newVal uint32) uint16 {
	c := Update16(old, uint16(oldVal>>16), uint16(newVal>>16))
	return Update16(c, uint16(oldVal&0xffff), uint16(newVal&0xffff))
}

// PseudoHeaderSum computes the partial sum of the TCP/UDP pseudo-header for
// the given IPv4 addresses, protocol and transport length, for inclusion in
// a transport checksum.
func PseudoHeaderSum(src, dst [4]byte, proto uint8, length int) uint16 {
	var ph [12]byte
	copy(ph[0:4], src[:])
	copy(ph[4:8], dst[:])
	ph[8] = 0
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:12], uint16(length))
	return Sum(ph[:])
}

// TransportChecksum computes the checksum of a transport segment (header +
// payload, with its checksum field already zeroed) covered by the IPv4
// pseudo-header.
func TransportChecksum(src, dst [4]byte, proto uint8, segment []byte) uint16 {
	sum := PseudoHeaderSum(src, dst, proto, len(segment))
	return ^Combine(sum, Sum(segment))
}

// VerifyTransport reports whether a transport segment with an embedded
// checksum field verifies under the IPv4 pseudo-header.
func VerifyTransport(src, dst [4]byte, proto uint8, segment []byte) bool {
	sum := PseudoHeaderSum(src, dst, proto, len(segment))
	return Combine(sum, Sum(segment)) == 0xffff
}
