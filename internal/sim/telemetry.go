package sim

import (
	"strconv"

	"repro/internal/telemetry"
)

// This file wires internal/telemetry into the stream experiment: the
// observation-only latency collector, the span recorder behind the
// Chrome-trace exporter, and the stamp clock that timestamps stage
// boundaries.
//
// A run has one collector, one span recorder and one stamp clock, shared
// by every CPU, link and sender: the simulator executes one event at a
// time, so one recorder sees every sample in a deterministic order.
//
// The invariant all of it preserves: telemetry reads the clock, it never
// schedules. Stage stamps are unconditional value writes on frames and
// SKBs; recording is a histogram increment or a slice append; nothing
// here charges a cycle or inserts an event, so a run with telemetry on is
// bit-identical — same schedule, same charged cycles, same StreamResult
// counters — to the same run with it off.

// TelemetryConfig selects a stream run's observation outputs.
type TelemetryConfig struct {
	// Latency enables per-message latency histograms: every data-carrying
	// host packet records its stage residencies (wire, ring, softirq,
	// stack, socket) and end-to-end latency into StreamResult.Latency.
	Latency bool
	// SpanSink, when set, enables the activity-interval recorder: per-CPU
	// softirq rounds and per-link wire occupancy, in simulated time,
	// delivered to SpanSink at the end of the run (canonically ordered).
	// It is not part of a JSON-encoded config.
	SpanSink func([]telemetry.Span) `json:"-"`
}

// enabled reports whether any telemetry output is requested.
func (t TelemetryConfig) enabled() bool { return t.Latency || t.SpanSink != nil }

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

// stampNow is the telemetry stamp clock: the instant the executing softirq
// round's work has reached — the round's start time plus the CPU time it
// has charged so far. Rounds execute one at a time, so the clock plus the
// meter's in-round charge is exactly that instant for whichever CPU is
// running. Outside any round (bursts, timer sweeps) it is plain virtual
// time.
func (cs *cpuSet) stampNow() uint64 {
	return cs.sim.Now() + cs.inRoundLatencyNs()
}

// armSpans points every CPU at the run's span recorder so round() can
// record activity intervals (nil-safe: unarmed CPUs record nothing).
func (cs *cpuSet) armSpans(rec *telemetry.SpanRecorder) {
	for i, c := range cs.cpus {
		c.spans = rec
		c.spanTrack = cpuTrackName(i)
	}
}

// cpuTrackName returns the trace track of softirq CPU i ("cpu0", ...).
func cpuTrackName(i int) string {
	return "cpu" + strconv.Itoa(i)
}

// linkTrackName returns the trace track of link i's wire ("eth0.wire").
func linkTrackName(i int) string {
	return "eth" + strconv.Itoa(i) + ".wire"
}
