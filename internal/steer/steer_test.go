package steer

import (
	"testing"

	"repro/internal/rss"
)

// plan is a helper running one epoch against a 4-CPU setup where CPU 0
// owns all the load.
func hotColdSetup() (util []float64, load []uint64, owner []int) {
	util = []float64{0.9, 0.3, 0.3, 0.3}
	load = make([]uint64, rss.Buckets)
	owner = make([]int, rss.Buckets)
	for b := range owner {
		owner[b] = b % 4
		if b%4 == 0 {
			load[b] = uint64(10 + b) // CPU 0's buckets carry everything
		}
	}
	return util, load, owner
}

func TestRebalancerMovesOffHotCPU(t *testing.T) {
	r := NewRebalancer()
	util, load, owner := hotColdSetup()
	moves := r.Plan(util, load, owner)
	if len(moves) == 0 {
		t.Fatal("no moves planned for a 0.6 utilization spread")
	}
	if len(moves) > maxMovesPerEpoch {
		t.Fatalf("%d moves exceed the per-epoch cap", len(moves))
	}
	for _, m := range moves {
		if m.From != 0 {
			t.Errorf("bucket %d moved off CPU %d, want the hot CPU 0", m.Bucket, m.From)
		}
		if m.To == 0 {
			t.Errorf("bucket %d moved back onto the hot CPU", m.Bucket)
		}
	}
}

func TestRebalancerHysteresis(t *testing.T) {
	r := NewRebalancer()
	util := []float64{0.37, 0.3, 0.3, 0.3} // spread 0.07 < threshold 0.08
	_, load, owner := hotColdSetup()
	if moves := r.Plan(util, load, owner); len(moves) != 0 {
		t.Fatalf("planned %d moves inside the hysteresis band", len(moves))
	}
	if r.Stats().CalmEpochs != 1 {
		t.Errorf("CalmEpochs = %d, want 1", r.Stats().CalmEpochs)
	}
}

// TestRebalancerDamping: a bucket moved in epoch E must rest 2 epochs
// even when the imbalance persists, and is eligible again in epoch E+3.
func TestRebalancerDamping(t *testing.T) {
	r := NewRebalancer()
	util, load, owner := hotColdSetup()
	plan := func() []Move {
		return r.Plan(util, append([]uint64(nil), load...), append([]int(nil), owner...))
	}
	first := plan()
	if len(first) == 0 {
		t.Fatal("epoch 1 planned no moves")
	}
	moved := map[int]bool{}
	for _, m := range first {
		moved[m.Bucket] = true
	}
	heaviest := first[0].Bucket
	// Same hot picture next epochs: the rested buckets must not move again.
	for epoch := 2; epoch <= 1+minMoveEpochs; epoch++ {
		for _, m := range plan() {
			if moved[m.Bucket] {
				t.Fatalf("epoch %d re-moved bucket %d during its rest period", epoch, m.Bucket)
			}
		}
	}
	if again := plan(); len(again) == 0 || again[0].Bucket != heaviest {
		t.Errorf("epoch %d planned %+v, want bucket %d moved again after its rest", 2+minMoveEpochs, again, heaviest)
	}
}

// TestRebalancerNoPingPong: one bucket carrying ALL the hot CPU's load is
// too heavy to help (moving it would just swap hot and cold) and must be
// skipped.
func TestRebalancerNoPingPong(t *testing.T) {
	r := NewRebalancer()
	util := []float64{0.95, 0.1, 0.1, 0.1}
	load := make([]uint64, rss.Buckets)
	owner := make([]int, rss.Buckets)
	for b := range owner {
		owner[b] = b % 4
	}
	load[0] = 100000 // bucket 0 on CPU 0 is the whole story
	if moves := r.Plan(util, load, owner); len(moves) != 0 {
		t.Fatalf("moved an un-splittable heavy bucket: %+v", moves)
	}
}

// TestRebalancerConverges: iterating plan+apply on a static load picture
// must reach a spread below the threshold and then go calm, not oscillate.
func TestRebalancerConverges(t *testing.T) {
	r := NewRebalancer()
	load := make([]uint64, rss.Buckets)
	owner := make([]int, rss.Buckets)
	for b := range owner {
		owner[b] = b % 4
		if b%4 == 0 {
			load[b] = 50
		} else {
			load[b] = 5
		}
	}
	utilOf := func() []float64 {
		cpuLoad := make([]uint64, 4)
		var total uint64
		for b, q := range owner {
			cpuLoad[q] += load[b]
			total += load[b]
		}
		util := make([]float64, 4)
		for c := range util {
			util[c] = 4 * 0.5 * float64(cpuLoad[c]) / float64(total) // mean util 0.5
		}
		return util
	}
	lastMoves := -1
	for epoch := 0; epoch < 50; epoch++ {
		moves := r.Plan(utilOf(), append([]uint64(nil), load...), append([]int(nil), owner...))
		for _, m := range moves {
			owner[m.Bucket] = m.To
		}
		lastMoves = len(moves)
	}
	util := utilOf()
	hot, cold := hottestColdest(util)
	if spread := util[hot] - util[cold]; spread > spreadThreshold {
		t.Errorf("after 50 epochs spread is still %.3f", spread)
	}
	if lastMoves != 0 {
		t.Errorf("still planning %d moves on a settled picture (oscillation)", lastMoves)
	}
}

// TestARFSObserve: a rule is programmed on a flow's first observation and
// on every app-CPU move, never for a settled flow or an unpinned app, and
// afresh after Forget.
func TestARFSObserve(t *testing.T) {
	a := NewARFS[string]()
	if !a.Observe("flow-a", 2) {
		t.Fatal("first observation did not program")
	}
	if a.Observe("flow-a", 2) {
		t.Fatal("settled flow re-programmed")
	}
	if !a.Observe("flow-a", 3) {
		t.Fatal("app-CPU migration did not re-program")
	}
	if a.Observe("flow-a", 3) {
		t.Fatal("flow settled on its new CPU re-programmed")
	}
	if a.Observe("flow-b", -1) {
		t.Fatal("unpinned app programmed a rule")
	}
	a.Forget("flow-a")
	a.Forget("flow-c") // never observed: a no-op
	if !a.Observe("flow-a", 3) {
		t.Fatal("forgotten flow did not re-program")
	}
	if !a.Observe("flow-b", 1) {
		t.Fatal("first pinned observation of a flow did not program")
	}
}
