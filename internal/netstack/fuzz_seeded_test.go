package netstack

import (
	"fmt"
	"testing"
	"time"
)

// seededInputs is how many splitmix64-seeded inputs TestSeededFuzzBodies
// feeds each fuzz body: about 1 s of work in all on a 2-core host,
// inside a budget of 2 s (seededBudget).
const (
	seededInputs = 64
	seededBudget = 2 * time.Second
)

// seededOps draws a whole number of three-byte operations, 1 to 64 of
// them, from splitmix64 seeded with x.
func seededOps(x uint64) []byte {
	ops := make([]byte, 3*(1+x%64))
	for i := range ops {
		x = splitmix64(x)
		ops[i] = byte(x)
	}
	return ops
}

// TestSeededFuzzBodies runs the bodies of FuzzInsertBatch, FuzzFlowTableOps
// and FuzzTimeWait on seededInputs fixed inputs each, drawn from
// splitmix64. The checked-in corpora pin the shapes that once failed; this
// keeps every plain test run exploring past them without the fuzz engine.
// The inputs are fixed, so a failure names a reproducible subtest. The
// elapsed time is logged against seededBudget rather than checked, so a
// slow host (or the race detector) cannot fail it.
func TestSeededFuzzBodies(t *testing.T) {
	begin := time.Now()
	for i := uint64(0); i < seededInputs; i++ {
		x := splitmix64(i)
		t.Run(fmt.Sprintf("InsertBatch/%d", i), func(t *testing.T) {
			insertBatchCase(t, uint16(x), uint8(x>>16), splitmix64(x))
		})
		t.Run(fmt.Sprintf("FlowTableOps/%d", i), func(t *testing.T) {
			flowTableOps(t, uint8(x>>8), seededOps(x))
		})
		t.Run(fmt.Sprintf("TimeWait/%d", i), func(t *testing.T) {
			timeWaitOps(t, uint8(x>>8), seededOps(^x))
		})
	}
	t.Logf("%d seeded inputs for each of three fuzz bodies in %v (budget %v)",
		seededInputs, time.Since(begin), seededBudget)
}
