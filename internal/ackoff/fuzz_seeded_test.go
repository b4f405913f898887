package ackoff

import (
	"fmt"
	"testing"
	"time"
)

// seededInputs is how many splitmix64-seeded inputs TestSeededFuzzBodies
// feeds FuzzExpand's body: a few milliseconds of work on a 2-core host, inside a
// budget of 1 s (seededBudget).
const (
	seededInputs = 64
	seededBudget = time.Second
)

// splitmix64 is the SplitMix64 finalizer, the seeded inputs' generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// seededBytes returns n bytes drawn from splitmix64 after x.
func seededBytes(x uint64, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		x = splitmix64(x)
		b[j] = byte(x)
	}
	return b
}

// TestSeededFuzzBodies runs FuzzExpand's body on seededInputs fixed inputs
// drawn from splitmix64: every header field, zero to three SACK blocks
// and 0 to 68 extra bytes (up to 16 ACK numbers), so a plain test run
// explores past the corpus without the fuzz engine. The elapsed time is
// logged against seededBudget rather than checked, so a slow host (or
// the race detector) cannot fail it.
func TestSeededFuzzBodies(t *testing.T) {
	begin := time.Now()
	for i := uint64(0); i < seededInputs; i++ {
		x := splitmix64(i)
		y := splitmix64(x)
		z := splitmix64(y)
		extras := seededBytes(z, int(z%69))
		t.Run(fmt.Sprintf("Expand/%d", i), func(t *testing.T) {
			expandCase(t, uint32(x), uint32(x>>32), uint16(y), uint16(y>>16), y>>32&1 == 1,
				uint32(z), uint32(z>>32), uint8(y>>40), extras)
		})
	}
	t.Logf("%d seeded inputs for the expand body in %v (budget %v)",
		seededInputs, time.Since(begin), seededBudget)
}
