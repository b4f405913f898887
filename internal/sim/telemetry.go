package sim

import (
	"repro/internal/telemetry"
)

// This file wires internal/telemetry into the stream experiment: the
// observation-only latency collector, the span recorder behind the
// Chrome-trace exporter, and the stamp clock that timestamps stage
// boundaries.
//
// The invariant all of it preserves: telemetry reads the clock, it never
// schedules. Stage stamps are unconditional value writes on frames and
// SKBs; recorders are per-CPU shards merged deterministically; nothing
// here charges a cycle or inserts an event, so a run with telemetry on is
// bit-identical — same schedule, same charged cycles, same StreamResult
// counters — to the same run with it off.

// TelemetryConfig selects a stream run's observation outputs.
type TelemetryConfig struct {
	// Latency enables per-message latency histograms: every data-carrying
	// host packet records its stage residencies (wire, ring, softirq,
	// stack, socket) and end-to-end latency into StreamResult.Latency.
	Latency bool
	// Spans enables the activity-interval recorder: per-CPU softirq
	// rounds and per-link wire occupancy, in simulated time, delivered to
	// SpanSink at the end of the run (canonically ordered).
	Spans bool
	// SpanSink receives the drained spans when Spans is set (nil: spans
	// are recorded and dropped). It is not part of a JSON-encoded config.
	SpanSink func([]telemetry.Span) `json:"-"`
}

// enabled reports whether any telemetry output is requested.
func (t TelemetryConfig) enabled() bool { return t.Latency || t.Spans }

// RPCConfig configures the request/response incast workload: the receiver
// machine (the system under test) issues synchronized bursts of 64-byte
// requests to many senders — one connection per sender, fan-in =
// Connections — and each sender answers with a MessageBytes response. All
// responses of a burst converge on the receiver at once (the incast
// pattern), and the next burst fires only when every response has been
// fully read, so the per-message RTT distribution directly exposes
// receive-path latency under fan-in pressure.
type RPCConfig struct {
	// Enabled switches the stream run from bulk streaming to the RPC
	// incast workload (implies TelemetryConfig.Latency).
	Enabled bool
	// MessageBytes is the response size each sender returns (0 = 1448).
	MessageBytes int
}

// stampNowOn is the telemetry stamp clock for CPU cpu: the instant the
// executing softirq round's work has reached — the round's start time
// plus the CPU time it has charged so far. Rounds execute one at a time,
// so the clock plus the meter's in-round charge is exactly that instant
// for whichever CPU is running. Outside any round (bursts, timer sweeps)
// it is plain virtual time.
func (cs *cpuSet) stampNowOn(cpu int) uint64 {
	return cs.sim.Now() + cs.inRoundLatencyNs()
}

// armSpans points every CPU at its span shard so round() can record
// activity intervals (nil-safe: unarmed CPUs record nothing).
func (cs *cpuSet) armSpans(rec *telemetry.SpanRecorder) {
	for i, c := range cs.cpus {
		c.spanLane = rec.Lane(i)
		c.spanTrack = cpuTrackName(i)
	}
}

// cpuTrackName returns the trace track of softirq CPU i ("cpu0", ...).
func cpuTrackName(i int) string {
	return "cpu" + itoa(i)
}

// linkTrackName returns the trace track of link i's wire ("eth0.wire").
func linkTrackName(i int) string {
	return "eth" + itoa(i) + ".wire"
}

// itoa is strconv.Itoa for small non-negative ints without the import.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
