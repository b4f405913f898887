package nic

import (
	"testing"

	"repro/internal/ipv4"
	"repro/internal/rss"
)

func steerTuple(srcPort uint16) rss.FlowKey {
	return rss.FlowKey{
		Src: ipv4.Addr{10, 0, 0, 1}, Dst: ipv4.Addr{10, 0, 0, 2},
		SrcPort: srcPort, DstPort: 44000,
	}
}

// TestIndirectionRewrite: rewriting a bucket's entry re-steers that
// bucket's flows (and only them) on the very next frame.
func TestIndirectionRewrite(t *testing.T) {
	cfg := DefaultConfig("eth0")
	cfg.RxQueues = 4
	n := mustNIC(t, cfg)
	sp := uint16(5001)
	hash := rss.HashTCP4(ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}, sp, 44000)
	bucket := rss.Bucket(hash)
	orig := n.Indirection().Entry(bucket)

	n.ReceiveFromWire(Frame{Data: flowFrame(sp, 44000)})
	if got := n.PollRxInto(orig, 1, nil); len(got) != 1 {
		t.Fatalf("frame not on original queue %d", orig)
	}

	moved := (orig + 1) % 4
	n.Indirection().Set(bucket, moved)
	n.ReceiveFromWire(Frame{Data: flowFrame(sp, 44000)})
	if got := n.PollRxInto(moved, 1, nil); len(got) != 1 {
		t.Fatalf("frame not re-steered to queue %d after rewrite", moved)
	}
	for q := 0; q < n.RxQueues(); q++ {
		if n.RxQueueLenOn(q) != 0 {
			t.Fatalf("stray frame on queue %d", q)
		}
	}
}

// TestFlowRuleOverridesHash: an exact-match rule wins over the
// indirection table, and removal restores hash steering.
func TestFlowRuleOverridesHash(t *testing.T) {
	cfg := DefaultConfig("eth0")
	cfg.RxQueues = 4
	cfg.FlowRuleSlots = 8
	n := mustNIC(t, cfg)
	sp := uint16(5001)
	hash := rss.HashTCP4(ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}, sp, 44000)
	hashQ := n.Indirection().Queue(hash)
	ruleQ := (hashQ + 2) % 4

	if _, err := n.ProgramFlowRule(steerTuple(sp), ruleQ); err != nil {
		t.Fatal(err)
	}
	n.ReceiveFromWire(Frame{Data: flowFrame(sp, 44000)})
	if got := n.PollRxInto(ruleQ, 1, nil); len(got) != 1 {
		t.Fatalf("rule did not override the hash (queue %d empty)", ruleQ)
	}
	if s := n.FlowRuleStatsRef(); s.Hits != 1 {
		t.Errorf("rule hits = %d, want 1", s.Hits)
	}
	// Another flow misses the table and follows the hash.
	other := uint16(5002)
	n.ReceiveFromWire(Frame{Data: flowFrame(other, 44000)})
	otherQ := n.Indirection().Queue(rss.HashTCP4(ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}, other, 44000))
	if got := n.PollRxInto(otherQ, 1, nil); len(got) != 1 {
		t.Fatalf("unruled flow left its hash queue")
	}

	n.RemoveFlowRule(steerTuple(sp))
	n.ReceiveFromWire(Frame{Data: flowFrame(sp, 44000)})
	if got := n.PollRxInto(hashQ, 1, nil); len(got) != 1 {
		t.Fatalf("flow did not fall back to hash steering after removal")
	}
}

// TestFlowRuleEviction: the bounded table evicts the least-recently-hit
// rule and reports the victim.
func TestFlowRuleEviction(t *testing.T) {
	cfg := DefaultConfig("eth0")
	cfg.RxQueues = 2
	cfg.FlowRuleSlots = 2
	n := mustNIC(t, cfg)
	for _, sp := range []uint16{5001, 5002} {
		if _, err := n.ProgramFlowRule(steerTuple(sp), 1); err != nil {
			t.Fatal(err)
		}
	}
	// Hit 5002 so 5001 is the LRU victim.
	n.ReceiveFromWire(Frame{Data: flowFrame(5002, 44000)})
	victim, err := n.ProgramFlowRule(steerTuple(5003), 0)
	if err != nil {
		t.Fatal(err)
	}
	if victim == nil || victim.SrcPort != 5001 {
		t.Fatalf("evicted %+v, want the LRU rule (port 5001)", victim)
	}
	if n.FlowRuleLen() != 2 {
		t.Errorf("rule table holds %d rules, want cap 2", n.FlowRuleLen())
	}
	if s := n.FlowRuleStatsRef(); s.Evicted != 1 {
		t.Errorf("evictions = %d, want 1", s.Evicted)
	}
}

// TestFlowRuleValidation: no table or out-of-range queue errors cleanly.
func TestFlowRuleValidation(t *testing.T) {
	n := mustNIC(t, DefaultConfig("eth0"))
	if _, err := n.ProgramFlowRule(steerTuple(5001), 0); err == nil {
		t.Error("programming without a rule table did not error")
	}
	cfg := DefaultConfig("eth1")
	cfg.RxQueues = 2
	cfg.FlowRuleSlots = 4
	n2 := mustNIC(t, cfg)
	if _, err := n2.ProgramFlowRule(steerTuple(5001), 2); err == nil {
		t.Error("out-of-range queue did not error")
	}
}

// TestBucketFrameCounters: classifiable frames count against their RSS
// bucket, giving the rebalancer its load observation.
func TestBucketFrameCounters(t *testing.T) {
	cfg := DefaultConfig("eth0")
	cfg.RxQueues = 2
	n := mustNIC(t, cfg)
	sp := uint16(5001)
	hash := rss.HashTCP4(ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}, sp, 44000)
	for i := 0; i < 3; i++ {
		n.ReceiveFromWire(Frame{Data: flowFrame(sp, 44000)})
	}
	loads := n.BucketFrames()
	if got := loads[rss.Bucket(hash)]; got != 3 {
		t.Errorf("bucket %d counted %d frames, want 3", rss.Bucket(hash), got)
	}
	var total uint64
	for _, l := range loads {
		total += l
	}
	if total != 3 {
		t.Errorf("stray bucket counts: total %d, want 3", total)
	}
}

// TestSharedIndirectionMap: NICs constructed with a shared map follow
// rewrites made through it.
func TestSharedIndirectionMap(t *testing.T) {
	m, err := rss.NewMap(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("eth0")
	cfg.RxQueues = 2
	cfg.Indir = m
	n := mustNIC(t, cfg)
	if n.Indirection() != m {
		t.Fatal("NIC did not adopt the shared map")
	}
	cfg2 := DefaultConfig("eth1")
	cfg2.RxQueues = 1
	cfg2.Indir = m
	if _, err := New(cfg2); err == nil {
		t.Error("map spanning more queues than the device accepted")
	}
}
