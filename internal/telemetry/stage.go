package telemetry

// Stage is one hop of the receive path's stage taxonomy. Each frame is
// stamped (buf.SKB / nic.Frame fields) as it crosses a stage boundary;
// the residency of stage S is the interval between its boundary stamp and
// the previous one:
//
//	sender send ──wire──▶ NIC ring ──ring──▶ softirq dequeue ──softirq──▶
//	aggregation close ──stack──▶ stack deliver ──socket──▶ app read
type Stage int

const (
	// StageWire is serialization plus propagation: sender transmit start
	// to arrival in the NIC's receive ring.
	StageWire Stage = iota
	// StageRing is ring residency: arrival to the driver's softirq
	// dequeue (interrupt coalescing lives here).
	StageRing
	// StageSoftirq is raw-queue plus aggregation residency: dequeue to
	// aggregation close (zero-width on unaggregated paths).
	StageSoftirq
	// StageStack is bridge/netback/IP processing: aggregation close to
	// the stack's TCP demux entry.
	StageStack
	// StageSocket is TCP processing plus the application copy: stack
	// entry to the application read.
	StageSocket
	// NumStages is the number of stages.
	NumStages int = iota
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageWire:
		return "wire"
	case StageRing:
		return "ring"
	case StageSoftirq:
		return "softirq"
	case StageStack:
		return "stack"
	case StageSocket:
		return "socket"
	default:
		return "stage?"
	}
}

// StageSet is one CPU's (or link's) recording shard: per-stage residency
// histograms, the end-to-end per-message histogram, and the RPC
// round-trip histogram. Merging happens at report time.
type StageSet struct {
	stage    [NumStages]Histogram
	e2e      Histogram
	rtt      Histogram
	recovery Histogram
}

// RecordStamps records one delivered host packet's stage residencies and
// end-to-end latency from its boundary stamps. A zero stamp (the boundary
// was not crossed — e.g. no aggregation stage on the baseline path)
// inherits the previous boundary, making that stage zero-width; a stamp
// below the previous boundary (impossible by construction, but cheap to
// guard) is clamped likewise.
func (s *StageSet) RecordStamps(sent, arrive, dequeue, aggClose, stackIn, appRead uint64) {
	if s == nil || sent == 0 {
		return
	}
	bounds := [NumStages + 1]uint64{sent, arrive, dequeue, aggClose, stackIn, appRead}
	for i := 1; i <= NumStages; i++ {
		if bounds[i] < bounds[i-1] {
			bounds[i] = bounds[i-1]
		}
	}
	for i := 0; i < NumStages; i++ {
		s.stage[i].Record(bounds[i+1] - bounds[i])
	}
	s.e2e.Record(bounds[NumStages] - bounds[0])
}

// RecordRTT records one RPC request→response round trip.
func (s *StageSet) RecordRTT(ns uint64) {
	if s == nil {
		return
	}
	s.rtt.Record(ns)
}

// RecordRecovery records one sender loss episode's duration: first
// retransmission (fast retransmit or RTO) to the cumulative ACK that
// covers every byte outstanding when the episode began.
func (s *StageSet) RecordRecovery(ns uint64) {
	if s == nil {
		return
	}
	s.recovery.Record(ns)
}

// Reset clears the shard.
func (s *StageSet) Reset() {
	for i := range s.stage {
		s.stage[i].Reset()
	}
	s.e2e.Reset()
	s.rtt.Reset()
	s.recovery.Reset()
}

// Collector owns the recording shards of one machine: one per softirq
// CPU, which records what that CPU delivers, then any the caller adds
// (the simulator adds one per link for sender-side samples). Report merges
// the shards with the commutative histogram sum.
type Collector struct {
	lanes []*StageSet
}

// NewCollector creates a collector with one shard per softirq CPU.
func NewCollector(lanes int) *Collector {
	if lanes < 1 {
		lanes = 1
	}
	c := &Collector{lanes: make([]*StageSet, lanes)}
	for i := range c.lanes {
		c.lanes[i] = &StageSet{}
	}
	return c
}

// Lane returns CPU i's recording shard (shard 0 for out-of-range
// indices, so unattributed deliveries still record).
func (c *Collector) Lane(i int) *StageSet {
	if c == nil {
		return nil
	}
	if i < 0 || i >= len(c.lanes) {
		return c.lanes[0]
	}
	return c.lanes[i]
}

// Reset clears every shard (measurement-interval boundary).
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for _, l := range c.lanes {
		l.Reset()
	}
}

// merged returns the shard-merged histograms: a plain sum in shard
// order (histogram merging is commutative).
func (c *Collector) merged() (stage [NumStages]Histogram, e2e, rtt, recovery Histogram) {
	for _, l := range c.lanes {
		for i := range stage {
			stage[i].Merge(&l.stage[i])
		}
		e2e.Merge(&l.e2e)
		rtt.Merge(&l.rtt)
		recovery.Merge(&l.recovery)
	}
	return stage, e2e, rtt, recovery
}

// StageSummary is one stage's digest in a LatencyReport.
type StageSummary struct {
	Stage string `json:"stage"`
	Summary
}

// LatencyReport is the merged latency digest surfaced as
// StreamResult.Latency. The zero value (telemetry disabled) is an empty
// report; comparing results with the Latency field zeroed is how the
// off/on equivalence golden is pinned.
type LatencyReport struct {
	// Enabled reports whether latency telemetry was on for the run.
	Enabled bool `json:"enabled,omitempty"`
	// E2E is the end-to-end per-message latency (sender transmit start
	// to application read), one observation per delivered host packet.
	E2E Summary `json:"e2e"`
	// RTT is the RPC request→response round trip per transaction
	// (zero outside RPC workloads).
	RTT Summary `json:"rtt"`
	// Recovery is the sender loss-episode duration per recovery event —
	// first retransmission to full cumulative coverage (zero on clean
	// links).
	Recovery Summary `json:"recovery"`
	// Stages are the per-stage residency digests in taxonomy order.
	Stages []StageSummary `json:"stages,omitempty"`
}

// Report merges the shards into a LatencyReport.
func (c *Collector) Report() LatencyReport {
	if c == nil {
		return LatencyReport{}
	}
	stage, e2e, rtt, recovery := c.merged()
	r := LatencyReport{
		Enabled:  true,
		E2E:      e2e.Summarize(),
		RTT:      rtt.Summarize(),
		Recovery: recovery.Summarize(),
		Stages:   make([]StageSummary, NumStages),
	}
	for i := range r.Stages {
		r.Stages[i] = StageSummary{Stage: Stage(i).String(), Summary: stage[i].Summarize()}
	}
	return r
}

// MergedE2E returns the shard-merged end-to-end histogram (tests and the
// partition-identity cross-check).
func (c *Collector) MergedE2E() Histogram {
	_, e2e, _, _ := c.merged()
	return e2e
}
