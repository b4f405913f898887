package ipv4

import (
	"fmt"
	"testing"
	"time"
)

// seededInputs is how many splitmix64-seeded inputs TestSeededFuzzBodies
// feeds FuzzParse's body: a few milliseconds of work on a 2-core host, inside a
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

// TestSeededFuzzBodies runs FuzzParse's body on seededInputs fixed inputs
// drawn from splitmix64, 0 to 95 bytes each. Odd inputs are raw bytes;
// even ones carry version 4, a header length of 5 to 15 words and a total
// length near the input's, so they reach the accept path and the round
// trip rather than stopping at the version check. The elapsed time is
// logged against seededBudget rather than checked, so a slow host (or the
// race detector) cannot fail it.
func TestSeededFuzzBodies(t *testing.T) {
	begin := time.Now()
	for i := uint64(0); i < seededInputs; i++ {
		x := splitmix64(i)
		b := seededBytes(x, int(x%96))
		if i%2 == 0 && len(b) >= 4 {
			y := splitmix64(^x)
			b[0] = 0x40 | byte(5+y%11)
			total := len(b) - 8 + int(y>>8%16) // truncated now and then
			b[2], b[3] = byte(total>>8), byte(total)
		}
		t.Run(fmt.Sprintf("Parse/%d", i), func(t *testing.T) { parseCase(t, b) })
	}
	t.Logf("%d seeded inputs for the parse body in %v (budget %v)",
		seededInputs, time.Since(begin), seededBudget)
}
