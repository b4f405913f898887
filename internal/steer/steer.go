// Package steer implements dynamic flow steering policy for the
// multi-queue receive pipeline: the decision half of what Linux exposes as
// RSS indirection rewriting (`ethtool -X ... weight`) and accelerated RFS.
//
// Static Toeplitz steering leaves the pipeline hostage to flow skew: the
// hash spreads *flows* evenly over buckets, but a zipf-weighted traffic
// mix concentrates *load* on whichever CPUs happen to own the heavy
// hitters' buckets — the RSS failure mode Wu et al. document in "A
// Transport-Friendly NIC for Multicore/Multiprocessor Systems" (the same
// work the multi-queue pipeline's hash design follows). Two cooperating
// policies correct it:
//
//   - Rebalancer: a control loop that runs once per epoch, observes
//     per-CPU utilization and per-bucket frame load, and plans indirection
//     rewrites moving buckets off hot CPUs. Hysteresis (a minimum
//     utilization spread before acting) and per-bucket move damping (a
//     bucket must rest for several epochs after moving) keep flows from
//     thrashing between CPUs.
//
//   - ARFS: per-flow exact-match steering that follows the consuming
//     application's CPU, observed at socket-read time. A flow whose app
//     runs on CPU c gets a NIC rule overriding the hash so its frames,
//     softirq processing and application reads all land on c.
//
// This package is pure policy: it decides, the machine applies (NIC
// indirection/rule writes, aggregation-state handoff, flow-table
// ownership) — see internal/sim and internal/xenvirt for the mechanism,
// and ARCHITECTURE.md ("Flow steering") for the whole picture, including
// why migration cannot break in-order delivery.
package steer

import (
	"cmp"
	"slices"

	"repro/internal/rss"
)

// The rebalancer's evaluated tuning.
const (
	// spreadThreshold is the hysteresis band: no moves are planned while
	// max−min per-CPU utilization stays below 8 points.
	spreadThreshold = 0.08
	// minMoveEpochs is the damping rest period: a bucket moved in epoch
	// E is not eligible again before epoch E+minMoveEpochs.
	minMoveEpochs = 2
	// maxMovesPerEpoch bounds the indirection rewrites of one epoch.
	maxMovesPerEpoch = 8
)

// Move is one planned indirection rewrite.
type Move struct {
	Bucket   int
	From, To int
}

// RebalanceStats counts rebalancer activity.
type RebalanceStats struct {
	// Epochs counts Plan invocations; CalmEpochs those that fell inside
	// the hysteresis band; Moves the total rewrites planned.
	Epochs, CalmEpochs, Moves uint64
}

// Rebalancer plans indirection rewrites from per-CPU utilization and
// per-bucket load observations. It is deterministic: same observations,
// same plan.
type Rebalancer struct {
	epoch     int
	lastMoved [rss.Buckets]int // epoch of the bucket's last move
	stats     RebalanceStats

	// Plan's scratch, kept so a warm epoch allocates nothing.
	estUtil  []float64
	cpuLoad  []uint64
	eligible []int
	moves    []Move
}

// NewRebalancer creates a rebalancer.
func NewRebalancer() *Rebalancer {
	r := &Rebalancer{}
	for b := range r.lastMoved {
		r.lastMoved[b] = -1 << 30 // every bucket starts eligible
	}
	return r
}

// Stats returns a copy of the rebalancer counters.
func (r *Rebalancer) Stats() RebalanceStats { return r.stats }

// Plan advances one epoch and returns the indirection rewrites to apply.
// util[c] is CPU c's busy fraction over the last epoch, load[b] the frames
// bucket b received in it, owner[b] the current indirection entry. The
// plan is greedy: while the estimated spread exceeds half the hysteresis
// threshold, the heaviest eligible bucket of the currently-hottest CPU
// moves to the currently-coldest one — but only when the move shrinks the
// gap between the two (a bucket too heavy to help is skipped rather than
// ping-ponged), and never more than maxMovesPerEpoch buckets or one move
// per bucket per minMoveEpochs epochs. The returned slice is valid until
// the next Plan.
func (r *Rebalancer) Plan(util []float64, load []uint64, owner []int) []Move {
	r.epoch++
	r.stats.Epochs++
	cpus := len(util)
	if cpus < 2 || len(load) != len(owner) {
		return nil
	}

	// Estimated state, updated as moves are planned: per-CPU utilization
	// and per-CPU frame load under the plan so far.
	estUtil := append(r.estUtil[:0], util...)
	cpuLoad := slices.Grow(r.cpuLoad[:0], cpus)[:cpus]
	clear(cpuLoad)
	r.estUtil, r.cpuLoad = estUtil, cpuLoad
	for b, q := range owner {
		if q >= 0 && q < cpus {
			cpuLoad[q] += load[b]
		}
	}

	hot, cold := hottestColdest(estUtil)
	if estUtil[hot]-estUtil[cold] < spreadThreshold {
		r.stats.CalmEpochs++
		return nil
	}

	// Buckets eligible to leave a CPU, heaviest first (moving the heavy
	// hitter's bucket is what actually shifts load).
	eligible := r.eligible[:0]
	for b := range owner {
		if load[b] > 0 && r.epoch-r.lastMoved[b] > minMoveEpochs {
			eligible = append(eligible, b)
		}
	}
	r.eligible = eligible
	slices.SortFunc(eligible, func(a, b int) int {
		if load[a] != load[b] {
			return cmp.Compare(load[b], load[a])
		}
		return cmp.Compare(a, b) // deterministic tie-break
	})

	moves := r.moves[:0]
	for _, b := range eligible {
		if len(moves) >= maxMovesPerEpoch {
			break
		}
		hot, cold = hottestColdest(estUtil)
		gap := estUtil[hot] - estUtil[cold]
		if gap < spreadThreshold/2 {
			break // balanced enough under the plan so far
		}
		from := owner[b]
		if from != hot || cpuLoad[hot] == 0 {
			continue
		}
		// The bucket's utilization share on the hot CPU, assuming the
		// CPU's busy time splits proportionally to frame load.
		share := estUtil[hot] * float64(load[b]) / float64(cpuLoad[hot])
		if share >= gap {
			continue // would overshoot: make cold hotter than hot was
		}
		moves = append(moves, Move{Bucket: b, From: from, To: cold})
		owner[b] = cold
		cpuLoad[from] -= load[b]
		cpuLoad[cold] += load[b]
		estUtil[from] -= share
		estUtil[cold] += share
		r.lastMoved[b] = r.epoch
		r.stats.Moves++
	}
	r.moves = moves
	return moves
}

// hottestColdest returns the indices of the max- and min-utilization CPUs.
func hottestColdest(util []float64) (hot, cold int) {
	for c := range util {
		if util[c] > util[hot] {
			hot = c
		}
		if util[c] < util[cold] {
			cold = c
		}
	}
	return hot, cold
}

// ARFS is the accelerated-RFS policy: it tracks, per flow, the CPU the
// consuming application was last observed on, and decides when a steering
// rule must be (re)programmed. A rule stays until its flow is torn down
// or LRU pressure on the NIC's bounded table evicts it; either way the
// caller forgets the flow. K is the flow-key type of the caller's stack
// (the policy never inspects it).
type ARFS[K comparable] struct {
	desired map[K]int
}

// NewARFS creates an empty policy.
func NewARFS[K comparable]() *ARFS[K] {
	return &ARFS[K]{desired: make(map[K]int)}
}

// Observe consumes one socket-read observation: flow k's application ran
// on appCPU. It reports whether a steering rule must be programmed —
// true exactly when appCPU is a real CPU and differs from what the policy
// last programmed for k (so a settled flow costs one map lookup per
// observation and no rule churn).
func (a *ARFS[K]) Observe(k K, appCPU int) bool {
	if appCPU < 0 {
		return false
	}
	if cur, ok := a.desired[k]; ok && cur == appCPU {
		return false
	}
	a.desired[k] = appCPU
	return true
}

// Forget drops k from tracking (flow teardown or rule eviction): the next
// observation will program afresh.
func (a *ARFS[K]) Forget(k K) { delete(a.desired, k) }
