package rss

import (
	"math/rand"
	"testing"

	"repro/internal/ipv4"
)

// TestToeplitzVerificationSuite checks the IPv4-with-ports vectors from the
// Microsoft RSS specification's verification suite under the default key.
func TestToeplitzVerificationSuite(t *testing.T) {
	cases := []struct {
		src, dst         ipv4.Addr
		srcPort, dstPort uint16
		want             uint32
	}{
		{ipv4.Addr{66, 9, 149, 187}, ipv4.Addr{161, 142, 100, 80}, 2794, 1766, 0x51ccc178},
		{ipv4.Addr{199, 92, 111, 2}, ipv4.Addr{65, 69, 140, 83}, 14230, 4739, 0xc626b0ea},
		{ipv4.Addr{24, 19, 198, 95}, ipv4.Addr{12, 22, 207, 184}, 12898, 38024, 0x5c2b394a},
		{ipv4.Addr{38, 27, 205, 30}, ipv4.Addr{209, 142, 163, 6}, 48228, 2217, 0xafc7327f},
		{ipv4.Addr{153, 39, 163, 191}, ipv4.Addr{202, 188, 127, 2}, 44251, 1303, 0x10e828a2},
	}
	for _, c := range cases {
		got := HashTCP4(c.src, c.dst, c.srcPort, c.dstPort)
		if got != c.want {
			t.Errorf("HashTCP4(%v:%d -> %v:%d) = %#08x, want %#08x",
				c.src, c.srcPort, c.dst, c.dstPort, got, c.want)
		}
	}
}

// TestTableMatchesBitwise: the precomputed DefaultKey table must agree
// with the generic bitwise Toeplitz for random inputs.
func TestTableMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		var in [12]byte
		rng.Read(in[:])
		var src, dst ipv4.Addr
		copy(src[:], in[0:4])
		copy(dst[:], in[4:8])
		sp := uint16(in[8])<<8 | uint16(in[9])
		dp := uint16(in[10])<<8 | uint16(in[11])
		if got, want := HashTCP4(src, dst, sp, dp), Toeplitz(DefaultKey[:], in[:]); got != want {
			t.Fatalf("table hash %#08x != bitwise %#08x for %x", got, want, in)
		}
	}
}

// TestHashHalvesMatchBitwise: the remote and local halves XOR to the
// table hash, and the split hash and each half equal the bitwise Toeplitz
// reference, over seeded tuples.
func TestHashHalvesMatchBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		var in [12]byte
		rng.Read(in[:])
		var src, dst ipv4.Addr
		copy(src[:], in[0:4])
		copy(dst[:], in[4:8])
		sp := uint16(in[8])<<8 | uint16(in[9])
		dp := uint16(in[10])<<8 | uint16(in[11])
		split := HashRemote(src, sp) ^ HashLocal(dst, dp)
		if full := HashTCP4(src, dst, sp, dp); split != full {
			t.Fatalf("HashRemote ^ HashLocal = %#08x, HashTCP4 = %#08x for %x", split, full, in)
		}
		if want := Toeplitz(DefaultKey[:], in[:]); split != want {
			t.Fatalf("split hash %#08x != bitwise %#08x for %x", split, want, in)
		}
		// Each half alone is the hash of the tuple with the other half
		// zeroed.
		remote, local := in, in
		clear(remote[4:8])
		clear(remote[10:12])
		clear(local[0:4])
		clear(local[8:10])
		if got, want := HashRemote(src, sp), Toeplitz(DefaultKey[:], remote[:]); got != want {
			t.Fatalf("HashRemote = %#08x, bitwise %#08x for %x", got, want, remote)
		}
		if got, want := HashLocal(dst, dp), Toeplitz(DefaultKey[:], local[:]); got != want {
			t.Fatalf("HashLocal = %#08x, bitwise %#08x for %x", got, want, local)
		}
	}
}

// TestHashDeterministic: a flow's hash — and therefore its queue and shard
// — never changes, for any queue count. This is the no-reordering
// guarantee: RSS never moves a live flow between queues.
func TestHashDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		src := ipv4.Addr{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		dst := ipv4.Addr{10, 0, 0, 2}
		sp, dp := uint16(rng.Intn(65536)), uint16(rng.Intn(65536))
		h := HashTCP4(src, dst, sp, dp)
		for rep := 0; rep < 3; rep++ {
			if h2 := HashTCP4(src, dst, sp, dp); h2 != h {
				t.Fatalf("hash not deterministic: %#x vs %#x", h, h2)
			}
		}
		for _, q := range []int{1, 2, 4, 8} {
			if q1, q2 := QueueOf(h, q), QueueOf(h, q); q1 != q2 {
				t.Fatalf("queue not deterministic: %d vs %d", q1, q2)
			}
		}
	}
}

// TestQueueDistribution is the flow-hash distribution property test: a
// randomized flow population must spread across queues within a tolerance
// bound of the uniform share, for every queue count we simulate.
func TestQueueDistribution(t *testing.T) {
	const flows = 20000
	const tolerance = 0.15 // each queue within ±15% of the uniform share
	for _, queues := range []int{2, 3, 4, 6, 8} {
		rng := rand.New(rand.NewSource(42))
		counts := make([]int, queues)
		for i := 0; i < flows; i++ {
			src := ipv4.Addr{10, 0, byte(rng.Intn(8)), byte(1 + rng.Intn(250))}
			dst := ipv4.Addr{10, 0, byte(rng.Intn(8)), 2}
			sp := uint16(1024 + rng.Intn(60000))
			dp := uint16(44000 + rng.Intn(1000))
			counts[QueueOf(HashTCP4(src, dst, sp, dp), queues)]++
		}
		uniform := float64(flows) / float64(queues)
		for q, c := range counts {
			dev := float64(c)/uniform - 1
			if dev < -tolerance || dev > tolerance {
				t.Errorf("queues=%d: queue %d got %d flows (%.1f%% from uniform %f)",
					queues, q, c, dev*100, uniform)
			}
		}
	}
}

// TestShardOwnership: with a power-of-two shard count and queues dividing
// shards, every shard maps to exactly one queue — the flow-table ownership
// invariant the sharded netstack relies on.
func TestShardOwnership(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 64, 128} {
		if err := ValidShards(shards); err != nil {
			t.Fatalf("ValidShards(%d): %v", shards, err)
		}
		for _, queues := range []int{1, 2, 4, 8} {
			if shards%queues != 0 {
				continue
			}
			owner := make(map[int]int)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 5000; i++ {
				h := rng.Uint32()
				s := ShardOf(h, shards)
				q := QueueOf(h, queues)
				if prev, seen := owner[s]; seen && prev != q {
					t.Fatalf("shards=%d queues=%d: shard %d claimed by queues %d and %d",
						shards, queues, s, prev, q)
				}
				owner[s] = q
			}
		}
	}
	for _, bad := range []int{0, -1, 3, 129, 256} {
		if ValidShards(bad) == nil {
			t.Errorf("ValidShards(%d) should fail", bad)
		}
	}
}

var hashSink uint32

// BenchmarkHashTCP4 times the table-driven four-tuple hash over distinct
// flows, the per-key cost a flow-table rehash and the NIC's per-frame
// steering pay.
func BenchmarkHashTCP4(b *testing.B) {
	dst := ipv4.Addr{172, 16, 0, 2}
	var h uint32
	for i := 0; i < b.N; i++ {
		h ^= HashTCP4(ipv4.Addr{172, 16, byte(i >> 8), byte(i)}, dst, uint16(1024+i), 8080)
	}
	hashSink = h
}

func TestFlowKeyString(t *testing.T) {
	k := FlowKey{Src: ipv4.Addr{1, 2, 3, 4}, Dst: ipv4.Addr{5, 6, 7, 8}, SrcPort: 9, DstPort: 10}
	if k.String() != "1.2.3.4:9->5.6.7.8:10" {
		t.Errorf("String() = %q", k.String())
	}
}
