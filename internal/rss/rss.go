// Package rss implements receive-side scaling: the Toeplitz flow hash and
// the indirection table that NIC hardware uses to steer incoming frames
// onto one of several receive queues, each serviced by its own CPU.
//
// The paper evaluates a single receive path; scaling that path to many
// cores follows the design of "A Transport-Friendly NIC for
// Multicore/Multiprocessor Systems" (Wu et al.): hash the connection
// four-tuple in hardware, look the hash up in a small indirection table,
// and deliver the frame to the queue (and thus the CPU) the table names.
// Because the hash is a pure function of the four-tuple, every frame of a
// flow lands on the same queue — per-flow ordering is preserved without
// any cross-CPU synchronization, and all per-flow state (aggregation
// slots, endpoint demux entries) can live shard-local to that CPU.
//
// The same hash also indexes the network stack's sharded flow table
// (internal/netstack): shard = bucket, queue = bucket % queues, so each
// shard is touched by exactly one softirq context. See ARCHITECTURE.md.
package rss

import (
	"fmt"

	"repro/internal/ipv4"
)

// Buckets is the size of the indirection table (and the canonical shard
// count of hash-partitioned flow state). 128 matches the Microsoft RSS
// specification's minimum table size and is a power of two, so a bucket is
// the low 7 bits of the Toeplitz hash.
const Buckets = 128

// DefaultKey is the 40-byte hash key from the Microsoft RSS specification
// (the de-facto standard default, used by e1000/ixgbe-class hardware and
// reproduced in the RSS verification suite).
var DefaultKey = [40]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// toeplitzTable is the precomputed per-(byte position, byte value)
// contribution of DefaultKey for 12-byte inputs: hashing becomes one
// table XOR per input byte instead of up to 8 keyWindow evaluations.
// Hardware computes the hash per frame; the simulation should not pay
// software bit-loop cost for it on every received frame.
var toeplitzTable = func() (t [12][256]uint32) {
	for pos := 0; pos < 12; pos++ {
		for v := 0; v < 256; v++ {
			var h uint32
			for bit := 0; bit < 8; bit++ {
				if v&(0x80>>uint(bit)) != 0 {
					h ^= keyWindow(DefaultKey[:], pos*8+bit)
				}
			}
			t[pos][v] = h
		}
	}
	return t
}()

// Toeplitz computes the Toeplitz hash of input under key. For every set
// bit i (MSB first) of the input, the 32-bit window of the key starting at
// bit i is XORed into the result. key must be at least len(input)+4 bytes.
func Toeplitz(key []byte, input []byte) uint32 {
	var result uint32
	for i, b := range input {
		for bit := 0; bit < 8; bit++ {
			if b&(0x80>>uint(bit)) != 0 {
				result ^= keyWindow(key, i*8+bit)
			}
		}
	}
	return result
}

// keyWindow returns the 32-bit window of key starting at bit offset off.
// Bits beyond the end of the key read as zero.
func keyWindow(key []byte, off int) uint32 {
	byteOff := off / 8
	shift := off % 8
	var v uint64
	for j := 0; j < 5; j++ {
		v <<= 8
		if byteOff+j < len(key) {
			v |= uint64(key[byteOff+j])
		}
	}
	return uint32(v >> uint(8-shift))
}

// FlowKey is a TCP connection's four-tuple as it appears on received
// frames (Src = remote sender, Dst = local endpoint): the key of the
// aggregation table and the stack's demux table.
type FlowKey struct {
	Src, Dst         ipv4.Addr
	SrcPort, DstPort uint16
}

// String renders the flow four-tuple.
func (k FlowKey) String() string {
	return fmt.Sprintf("%v:%d->%v:%d", k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Hash returns the flow's RSS hash, HashTCP4 of its four-tuple.
func (k FlowKey) Hash() uint32 { return HashTCP4(k.Src, k.Dst, k.SrcPort, k.DstPort) }

// HashTCP4 computes the RSS hash of an IPv4 TCP four-tuple using the
// default key (via the precomputed table). The input layout follows the
// specification: source address, destination address, source port,
// destination port, network byte order.
func HashTCP4(src, dst ipv4.Addr, srcPort, dstPort uint16) uint32 {
	t := &toeplitzTable
	return t[0][src[0]] ^ t[1][src[1]] ^ t[2][src[2]] ^ t[3][src[3]] ^
		t[4][dst[0]] ^ t[5][dst[1]] ^ t[6][dst[2]] ^ t[7][dst[3]] ^
		t[8][byte(srcPort>>8)] ^ t[9][byte(srcPort)] ^
		t[10][byte(dstPort>>8)] ^ t[11][byte(dstPort)]
}

// HashRemote and HashLocal split HashTCP4 into its remote (source) and
// local (destination) halves. The Toeplitz hash XORs one contribution per
// input byte, so HashTCP4(src, dst, srcPort, dstPort) is exactly
// HashRemote(src, srcPort) ^ HashLocal(dst, dstPort): a table that knows
// a key's local half already, with its hash share, rebuilds the key's
// hash from the six remote bytes alone.
func HashRemote(src ipv4.Addr, srcPort uint16) uint32 {
	t := &toeplitzTable
	return t[0][src[0]] ^ t[1][src[1]] ^ t[2][src[2]] ^ t[3][src[3]] ^
		t[8][byte(srcPort>>8)] ^ t[9][byte(srcPort)]
}

// HashLocal is the local half of HashTCP4; see HashRemote.
func HashLocal(dst ipv4.Addr, dstPort uint16) uint32 {
	t := &toeplitzTable
	return t[4][dst[0]] ^ t[5][dst[1]] ^ t[6][dst[2]] ^ t[7][dst[3]] ^
		t[10][byte(dstPort>>8)] ^ t[11][byte(dstPort)]
}

// Bucket maps a hash to its indirection-table bucket.
func Bucket(hash uint32) int { return int(hash & (Buckets - 1)) }

// QueueOf maps a hash onto one of queues receive queues via the
// indirection table. The table is filled round-robin (bucket b -> queue
// b mod queues), the standard even spread, and never rewritten (static
// RSS); queues must be positive. It is the one bucket→CPU decision: the
// NICs' queue choice, the flow table's owner accounting and netback's I/O
// channel choice all call it.
func QueueOf(hash uint32, queues int) int {
	if queues <= 1 {
		return 0
	}
	return Bucket(hash) % queues
}

// ShardOf maps a hash onto one of shards flow-table shards. shards must be
// a power of two no larger than Buckets, so that every shard is reached
// from exactly one set of buckets and — with queue = bucket mod queues —
// is owned by exactly one queue whenever queues divides shards.
func ShardOf(hash uint32, shards int) int {
	return Bucket(hash) & (shards - 1)
}

// ValidShards reports whether shards is a usable shard count: a power of
// two in [1, Buckets].
func ValidShards(shards int) error {
	if shards <= 0 || shards > Buckets || shards&(shards-1) != 0 {
		return fmt.Errorf("rss: shard count %d must be a power of two in [1, %d]", shards, Buckets)
	}
	return nil
}
