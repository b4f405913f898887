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

// SpanRecorder is a run's one activity-interval recorder: every recording
// site (softirq CPUs, link wires) appends to the same slice, and Drain
// returns it in canonical order. Recording allocates only Go slice
// growth: no simulated cost, no events.
type SpanRecorder struct {
	spans []Span
}

// Record appends a span. Nil-safe, so call sites wire the recorder
// unconditionally and pay one branch when tracing is off.
func (r *SpanRecorder) Record(track, name string, startNs, durNs uint64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, Span{Track: track, Name: name, StartNs: startNs, DurNs: durNs})
}

// Reset clears the recorder (measurement-interval boundary).
func (r *SpanRecorder) Reset() {
	if r == nil {
		return
	}
	r.spans = r.spans[:0]
}

// Drain returns a copy of the recorded spans stable-sorted by (StartNs,
// Track, Name, DurNs): the trace exporter's canonical order.
func (r *SpanRecorder) Drain() []Span {
	if r == nil {
		return nil
	}
	out := append([]Span(nil), r.spans...)
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
