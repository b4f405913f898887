// Package telemetry is the measurement layer of the simulation: log-bucketed
// latency histograms, per-frame stage residency accounting, and an activity
// span recorder with a Chrome-trace exporter.
//
// The cardinal rule of this package is that observation cost is zero by
// construction: nothing here charges a cycle meter, allocates from the priced
// buf.Allocator, or schedules a simulation event. A recording is a Go-level
// field write plus a bucket increment — it reads the virtual clock, it never
// advances it. Telemetry enabled and telemetry disabled therefore execute
// the exact same event schedule and charge the exact same cycles; the
// goldens of every prior PR hold bit for bit either way (pinned by
// TestTelemetryZeroPerturbation).
//
// A run has one Collector and one SpanRecorder, and every recording site
// writes into them. The simulator executes one event at a time, so samples
// arrive in one deterministic order; Drain's canonical sort fixes the span
// order for the trace exporter.
package telemetry

import "math/bits"

// The histogram is log-linear: values below 2^subBits land in exact
// unit-width buckets; above that, each power-of-two range is split into
// 2^subBits sub-buckets, so the relative quantile error is bounded by
// half a sub-bucket width — at most 1/2^(subBits+1) ≈ 3.1% of the value.
const (
	subBits    = 4
	subBuckets = 1 << subBits
	// NumBuckets covers the full uint64 range: 16 unit buckets plus
	// 16 sub-buckets per octave for exponents 4..63.
	NumBuckets = (64 - subBits + 1) * subBuckets
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - 1           // v ∈ [2^e, 2^(e+1)), e ≥ subBits
	mant := v >> (uint(e) - subBits) // ∈ [subBuckets, 2*subBuckets)
	return (e-subBits)*subBuckets + int(mant)
}

// bucketValue returns the representative (midpoint) value of a bucket; the
// inverse of bucketIndex up to the bounded rounding error.
func bucketValue(idx int) uint64 {
	if idx < subBuckets {
		return uint64(idx)
	}
	g := idx / subBuckets // octave group ≥ 1; exponent e = g-1+subBits
	m := uint64(idx % subBuckets)
	shift := uint(g - 1)
	lo := (subBuckets + m) << shift
	width := uint64(1) << shift
	return lo + (width-1)/2
}

// Histogram is a fixed-footprint log-bucketed latency histogram in
// simulated nanoseconds. The zero value is ready to use; Record is one
// array increment plus three scalar updates and never allocates.
type Histogram struct {
	counts [NumBuckets]uint64
	count  uint64
	sum    uint64
	max    uint64
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) { h.Add(v, 1) }

// Add adds n observations of value v (weighted record).
func (h *Histogram) Add(v, n uint64) {
	if n == 0 {
		return
	}
	h.counts[bucketIndex(v)] += n
	h.count += n
	h.sum += v * n
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of recorded values (not bucket-quantized).
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the exact mean of recorded values (0 when empty).
func (h *Histogram) Mean() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Quantile returns the value at quantile q ∈ [0, 1]: the representative
// value of the bucket containing the ⌈q·count⌉-th observation, with
// relative error bounded by half a sub-bucket (≈3.1%). Returns 0 when
// empty; q=1 lands in the bucket of the maximum.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		if cum > rank {
			return bucketValue(i)
		}
	}
	return h.max // unreachable: counts sum to count
}

// Reset clears the histogram (measurement-interval boundary).
func (h *Histogram) Reset() { *h = Histogram{} }

// Summary is the report-friendly digest of a histogram: plain comparable
// fields, safe for reflect.DeepEqual and JSON round-trips.
type Summary struct {
	Count  uint64 `json:"count"`
	SumNs  uint64 `json:"sum_ns"`
	MeanNs uint64 `json:"mean_ns"`
	P50Ns  uint64 `json:"p50_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	P999Ns uint64 `json:"p999_ns"`
	MaxNs  uint64 `json:"max_ns"`
}

// Summarize digests the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:  h.count,
		SumNs:  h.sum,
		MeanNs: h.Mean(),
		P50Ns:  h.Quantile(0.50),
		P99Ns:  h.Quantile(0.99),
		P999Ns: h.Quantile(0.999),
		MaxNs:  h.max,
	}
}
