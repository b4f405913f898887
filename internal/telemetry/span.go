package telemetry

import "sort"

// Span is one activity interval on a named track in simulated time: a CPU
// softirq round, a link's wire occupancy, a subsystem's busy window.
type Span struct {
	// Track names the resource the span occupied ("cpu0", "eth1.wire").
	Track string `json:"track"`
	// Name is the activity ("round", "tx").
	Name string `json:"name"`
	// StartNs is the interval start in simulated nanoseconds.
	StartNs uint64 `json:"start_ns"`
	// DurNs is the interval length.
	DurNs uint64 `json:"dur_ns"`
}

// SpanRecorder captures activity intervals into per-track shards (one
// per softirq CPU, one per link). Each recording site holds its shard's
// *SpanLane and appends to it; Drain merges the shards canonically.
// Recording allocates only Go slice growth: no simulated cost, no events.
type SpanRecorder struct {
	lanes   []SpanLane
	enabled bool
}

// SpanLane is one append-only span shard.
type SpanLane struct {
	rec   *SpanRecorder
	spans []Span
}

// NewSpanRecorder creates a recorder with the given shard count (CPU
// shards first, then link shards, by the caller's convention).
func NewSpanRecorder(lanes int) *SpanRecorder {
	if lanes < 1 {
		lanes = 1
	}
	r := &SpanRecorder{lanes: make([]SpanLane, lanes), enabled: true}
	for i := range r.lanes {
		r.lanes[i].rec = r
	}
	return r
}

// Lane returns shard i (shard 0 for out-of-range indices).
func (r *SpanRecorder) Lane(i int) *SpanLane {
	if r == nil {
		return nil
	}
	if i < 0 || i >= len(r.lanes) {
		return &r.lanes[0]
	}
	return &r.lanes[i]
}

// Record appends a span to the shard. Nil-safe, so call sites wire a shard
// unconditionally and pay one branch when tracing is off.
func (l *SpanLane) Record(track, name string, startNs, durNs uint64) {
	if l == nil || !l.rec.enabled {
		return
	}
	l.spans = append(l.spans, Span{Track: track, Name: name, StartNs: startNs, DurNs: durNs})
}

// Reset clears every shard (measurement-interval boundary).
func (r *SpanRecorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.lanes {
		r.lanes[i].spans = r.lanes[i].spans[:0]
	}
}

// Drain returns the canonically merged span stream: shards concatenated
// in shard order, then stable-sorted by (StartNs, Track, Name, DurNs):
// the trace exporter's canonical order.
func (r *SpanRecorder) Drain() []Span {
	if r == nil {
		return nil
	}
	total := 0
	for i := range r.lanes {
		total += len(r.lanes[i].spans)
	}
	out := make([]Span, 0, total)
	for i := range r.lanes {
		out = append(out, r.lanes[i].spans...)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].StartNs != out[b].StartNs {
			return out[a].StartNs < out[b].StartNs
		}
		if out[a].Track != out[b].Track {
			return out[a].Track < out[b].Track
		}
		if out[a].Name != out[b].Name {
			return out[a].Name < out[b].Name
		}
		return out[a].DurNs < out[b].DurNs
	})
	return out
}
