package softirq

import (
	"fmt"
	"testing"
	"time"
)

// seededInputs is how many splitmix64-seeded inputs TestSeededFuzzBodies
// feeds FuzzRing's body: a few milliseconds of work on a 2-core host,
// inside a budget of 1 s (seededBudget).
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

// TestSeededFuzzBodies runs FuzzRing's body on seededInputs fixed inputs
// drawn from splitmix64: a bound byte and 1 to 256 operations each, so a
// plain test run explores past the corpus without the fuzz engine. The
// elapsed time is logged against seededBudget rather than checked, so a
// slow host (or the race detector) cannot fail it.
func TestSeededFuzzBodies(t *testing.T) {
	begin := time.Now()
	for i := uint64(0); i < seededInputs; i++ {
		x := splitmix64(i)
		ops := make([]byte, 2+x%256)
		for j := range ops {
			x = splitmix64(x)
			ops[j] = byte(x)
		}
		t.Run(fmt.Sprintf("Ring/%d", i), func(t *testing.T) { ringOps(t, ops) })
	}
	t.Logf("%d seeded inputs for the ring body in %v (budget %v)",
		seededInputs, time.Since(begin), seededBudget)
}
