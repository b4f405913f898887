// Flow steering beyond the hash: real NICs (ixgbe Flow Director, mlx5
// aRFS) keep a bounded table of exact-match filters that override the RSS
// indirection for individual connections — the hardware half of
// accelerated RFS, where the kernel programs a rule so a flow's frames
// follow the CPU its consuming application runs on. This file models that
// table: four-tuple → queue, bounded capacity, LRU eviction when full.
package nic

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/rss"
)

// flowRule is one programmed filter.
type flowRule struct {
	queue   int
	lastHit uint64 // rule-table touch clock at the last match (LRU eviction key)
}

// FlowRuleStats counts steering-rule activity on one NIC.
type FlowRuleStats struct {
	// Programmed counts rule installs (including queue updates of an
	// existing rule).
	Programmed uint64
	// Evicted counts rules displaced by capacity pressure.
	Evicted uint64
	// Hits counts received frames steered by a rule (overriding the
	// indirection table); Misses counts classifiable frames that matched
	// no rule while the table was non-empty.
	Hits, Misses uint64
}

// FlowRuleLen returns the number of live rules.
func (n *NIC) FlowRuleLen() int { return len(n.rules) }

// FlowRuleStatsRef returns a copy of the rule counters.
func (n *NIC) FlowRuleStatsRef() FlowRuleStats { return n.ruleStats }

// ProgramFlowRule installs (or updates) an exact-match rule steering t's
// frames to queue. When the table is full the least-recently-hit rule is
// evicted to make room; the evicted tuple is returned so the control path
// can drop any per-flow state keyed on it (e.g. the flow table's ownership
// override). It errors when the NIC has no rule table or the queue is out
// of range.
func (n *NIC) ProgramFlowRule(t rss.FlowKey, queue int) (evicted *rss.FlowKey, err error) {
	if n.cfg.FlowRuleSlots <= 0 {
		return nil, fmt.Errorf("nic %s: no flow steering table", n.cfg.Name)
	}
	if queue < 0 || queue >= len(n.rxq) {
		return nil, fmt.Errorf("nic %s: steer queue %d out of range [0, %d)", n.cfg.Name, queue, len(n.rxq))
	}
	if r, ok := n.rules[t]; ok {
		r.queue = queue
		n.ruleStats.Programmed++
		return nil, nil
	}
	if len(n.rules) >= n.cfg.FlowRuleSlots {
		victim := n.evictLRURule()
		evicted = &victim
	}
	n.ruleClock++
	var r *flowRule
	if k := len(n.ruleFree); k > 0 {
		r, n.ruleFree = n.ruleFree[k-1], n.ruleFree[:k-1]
	} else {
		r = new(flowRule)
	}
	*r = flowRule{queue: queue, lastHit: n.ruleClock}
	n.rules[t] = r
	n.ruleStats.Programmed++
	return evicted, nil
}

// RemoveFlowRule drops t's rule, if it has one.
func (n *NIC) RemoveFlowRule(t rss.FlowKey) {
	r, ok := n.rules[t]
	if !ok {
		return
	}
	delete(n.rules, t)
	n.ruleFree = append(n.ruleFree, r)
}

// evictLRURule removes and returns the least-recently-hit rule's tuple.
// Ties on lastHit (same-instant programming, quiet table) are broken by
// tuple order: picking the tie victim by map iteration order would make
// the rule table's contents — and every steering decision after the
// eviction — differ between two runs of the same config.
func (n *NIC) evictLRURule() rss.FlowKey {
	candidates := make([]rss.FlowKey, 0, len(n.rules))
	//simlint:sorted candidates are fully sorted by (lastHit, tuple) below before the victim is chosen
	for t := range n.rules {
		candidates = append(candidates, t)
	}
	sort.Slice(candidates, func(i, j int) bool {
		hi, hj := n.rules[candidates[i]].lastHit, n.rules[candidates[j]].lastHit
		if hi != hj {
			return hi < hj
		}
		return tupleLess(candidates[i], candidates[j])
	})
	victim := candidates[0]
	n.ruleFree = append(n.ruleFree, n.rules[victim])
	delete(n.rules, victim)
	n.ruleStats.Evicted++
	return victim
}

// tupleLess is a total order over flow keys for deterministic tie-breaks.
func tupleLess(a, b rss.FlowKey) bool {
	if c := bytes.Compare(a.Src[:], b.Src[:]); c != 0 {
		return c < 0
	}
	if c := bytes.Compare(a.Dst[:], b.Dst[:]); c != 0 {
		return c < 0
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	return a.DstPort < b.DstPort
}

// steerQueue resolves the receive queue for a classified frame: an
// exact-match rule wins over the indirection table. Called from
// ReceiveFromWire with the parsed tuple and hash.
func (n *NIC) steerQueue(t rss.FlowKey, hash uint32) int {
	if len(n.rules) > 0 {
		if r, ok := n.rules[t]; ok {
			n.ruleClock++
			r.lastHit = n.ruleClock
			n.ruleStats.Hits++
			return r.queue
		}
		n.ruleStats.Misses++
	}
	if len(n.rxq) > 1 {
		return n.indir.Queue(hash)
	}
	return 0
}

// BucketFrames returns a copy of the per-bucket received-frame counters
// (index = RSS bucket), by value so taking it allocates nothing. The
// rebalancing policy diffs successive snapshots to see where load
// actually lands.
func (n *NIC) BucketFrames() [rss.Buckets]uint64 { return n.bucketFrames }

// Indirection exposes the NIC's (possibly shared) indirection table.
func (n *NIC) Indirection() *rss.Map { return n.indir }
