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

// Collector is a run's one latency recorder: per-stage residency
// histograms, the end-to-end per-message histogram, the RPC round-trip
// histogram and the sender loss-recovery histogram. Every recording site
// of the run (endpoints, the RPC driver, the senders) holds the same
// collector; the simulator executes one event at a time, so the samples
// land in one deterministic order. Every method is nil-safe, so a site
// wired with a nil collector records nothing.
type Collector struct {
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
func (c *Collector) RecordStamps(sent, arrive, dequeue, aggClose, stackIn, appRead uint64) {
	if c == nil || sent == 0 {
		return
	}
	bounds := [NumStages + 1]uint64{sent, arrive, dequeue, aggClose, stackIn, appRead}
	for i := 1; i <= NumStages; i++ {
		if bounds[i] < bounds[i-1] {
			bounds[i] = bounds[i-1]
		}
	}
	for i := 0; i < NumStages; i++ {
		c.stage[i].Record(bounds[i+1] - bounds[i])
	}
	c.e2e.Record(bounds[NumStages] - bounds[0])
}

// RecordRTT records one RPC request→response round trip.
func (c *Collector) RecordRTT(ns uint64) {
	if c == nil {
		return
	}
	c.rtt.Record(ns)
}

// RecordRecovery records one sender loss episode's duration: first
// retransmission (fast retransmit or RTO) to the cumulative ACK that
// covers every byte outstanding when the episode began.
func (c *Collector) RecordRecovery(ns uint64) {
	if c == nil {
		return
	}
	c.recovery.Record(ns)
}

// Reset clears every histogram (measurement-interval boundary).
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.stage {
		c.stage[i].Reset()
	}
	c.e2e.Reset()
	c.rtt.Reset()
	c.recovery.Reset()
}

// StageSummary is one stage's digest in a LatencyReport.
type StageSummary struct {
	Stage string `json:"stage"`
	Summary
}

// LatencyReport is the run's latency digest surfaced as
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

// Report digests the histograms into a LatencyReport.
func (c *Collector) Report() LatencyReport {
	if c == nil {
		return LatencyReport{}
	}
	r := LatencyReport{
		Enabled:  true,
		E2E:      c.e2e.Summarize(),
		RTT:      c.rtt.Summarize(),
		Recovery: c.recovery.Summarize(),
		Stages:   make([]StageSummary, NumStages),
	}
	for i := range r.Stages {
		r.Stages[i] = StageSummary{Stage: Stage(i).String(), Summary: c.stage[i].Summarize()}
	}
	return r
}
