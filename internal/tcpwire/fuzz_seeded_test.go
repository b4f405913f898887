package tcpwire

import (
	"fmt"
	"testing"
	"time"
)

// seededInputs is how many splitmix64-seeded inputs TestSeededFuzzBodies
// feeds FuzzParseOptions' body: a few milliseconds of work on a 2-core host, inside a
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

// TestSeededFuzzBodies runs FuzzParseOptions' body on seededInputs fixed
// inputs drawn from splitmix64: the timestamp, block count and block
// bytes of the round trip, and 0 to 40 raw option bytes. Even inputs draw
// raw bytes below 12, so option kinds and lengths are small and Parse
// walks real option layouts instead of rejecting the first byte. The
// elapsed time is logged against seededBudget rather than checked, so a
// slow host (or the race detector) cannot fail it.
func TestSeededFuzzBodies(t *testing.T) {
	begin := time.Now()
	for i := uint64(0); i < seededInputs; i++ {
		x := splitmix64(i)
		y := splitmix64(x)
		blocks := seededBytes(y, int(y%40))
		raw := seededBytes(^y, int(y>>8%41))
		if i%2 == 0 {
			for j := range raw {
				raw[j] %= 12
			}
		}
		t.Run(fmt.Sprintf("ParseOptions/%d", i), func(t *testing.T) {
			parseOptionsCase(t, x&1 == 1, uint32(x>>1), uint32(x>>33), uint8(y>>16), blocks, raw)
		})
	}
	t.Logf("%d seeded inputs for the options body in %v (budget %v)",
		seededInputs, time.Since(begin), seededBudget)
}
