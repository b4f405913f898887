package telemetry

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestBucketRoundTrip: every value's bucket contains it, and the
// representative value is within the bounded relative error.
func TestBucketRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 5, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, (1 << 20) + 12345, 1 << 40, ^uint64(0)}
	for _, v := range vals {
		idx := bucketIndex(v)
		if idx < 0 || idx >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		rep := bucketValue(idx)
		if v < subBuckets {
			if rep != v {
				t.Fatalf("unit bucket %d: representative %d != %d", idx, rep, v)
			}
			continue
		}
		lo := float64(v) * (1 - 1.0/subBuckets)
		hi := float64(v) * (1 + 1.0/subBuckets)
		if float64(rep) < lo || float64(rep) > hi {
			t.Fatalf("value %d: representative %d outside ±1/%d band", v, rep, subBuckets)
		}
	}
	// Indices are monotone in the value.
	prev := -1
	for e := 0; e < 64; e++ {
		v := uint64(1) << e
		idx := bucketIndex(v)
		if idx <= prev {
			t.Fatalf("bucketIndex(1<<%d) = %d not monotone (prev %d)", e, idx, prev)
		}
		prev = idx
	}
}

// TestQuantileErrorBounds: on a random sample, every reported quantile is
// within the sub-bucket relative error of the exact order statistic.
func TestQuantileErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	vals := make([]uint64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform spread over ~6 decades, the shape of latency data.
		v := uint64(1) << uint(rng.Intn(40))
		v += uint64(rng.Int63n(int64(v) + 1))
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))]
		got := h.Quantile(q)
		lo := float64(exact) * (1 - 1.0/subBuckets)
		hi := float64(exact) * (1 + 1.0/subBuckets)
		if float64(got) < lo || float64(got) > hi {
			t.Fatalf("q%.3f: got %d, exact %d, outside ±%.1f%% band",
				q, got, exact, 100.0/subBuckets)
		}
	}
	if h.Count() != 20000 {
		t.Fatalf("count %d != 20000", h.Count())
	}
}

// TestMergeAssociativity: merging shards in any grouping or order yields
// the bit-identical histogram, and the merged sum/count equal the shard
// sums exactly.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shards := make([]Histogram, 4)
	var wantCount, wantSum uint64
	for i := range shards {
		for j := 0; j < 5000; j++ {
			v := uint64(rng.Int63n(1 << 30))
			shards[i].Record(v)
			wantCount++
			wantSum += v
		}
	}
	// (((a+b)+c)+d)
	var left Histogram
	for i := range shards {
		left.Merge(&shards[i])
	}
	// (d+(c+(b+a)))
	var right Histogram
	for i := len(shards) - 1; i >= 0; i-- {
		right.Merge(&shards[i])
	}
	// ((a+b)+(c+d))
	var ab, cd, grouped Histogram
	ab.Merge(&shards[0])
	ab.Merge(&shards[1])
	cd.Merge(&shards[2])
	cd.Merge(&shards[3])
	grouped.Merge(&ab)
	grouped.Merge(&cd)
	if !reflect.DeepEqual(left, right) || !reflect.DeepEqual(left, grouped) {
		t.Fatal("merge order changed the merged histogram")
	}
	if left.Count() != wantCount || left.Sum() != wantSum {
		t.Fatalf("merged count/sum %d/%d != exact %d/%d", left.Count(), left.Sum(), wantCount, wantSum)
	}
	if left.Summarize() != right.Summarize() {
		t.Fatal("summaries differ across merge orders")
	}
}

// TestWeightedAdd: Add(v, n) is exactly n Records of v.
func TestWeightedAdd(t *testing.T) {
	var a, b Histogram
	a.Add(1234, 7)
	for i := 0; i < 7; i++ {
		b.Record(1234)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Add(v,7) != 7×Record(v)")
	}
}

// TestCollectorPartition: stage residencies partition the end-to-end
// interval exactly — the cross-check identity rxprof relies on.
func TestCollectorPartition(t *testing.T) {
	var s Collector
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		base := uint64(rng.Int63n(1 << 40))
		ts := [6]uint64{base, 0, 0, 0, 0, 0}
		cur := base
		for j := 1; j < 6; j++ {
			cur += uint64(rng.Int63n(100_000))
			if rng.Intn(4) == 0 {
				ts[j] = 0 // missing boundary inherits the previous one
			} else {
				ts[j] = cur
			}
		}
		s.RecordStamps(ts[0], ts[1], ts[2], ts[3], ts[4], ts[5])
	}
	var stageSum uint64
	for i := 0; i < NumStages; i++ {
		stageSum += s.stage[i].Sum()
	}
	if stageSum != s.e2e.Sum() {
		t.Fatalf("stage residency sum %d != e2e sum %d", stageSum, s.e2e.Sum())
	}
	if s.e2e.Count() != 1000 {
		t.Fatalf("e2e count %d != 1000", s.e2e.Count())
	}
	// Zero-sent stamps are ignored entirely.
	s.RecordStamps(0, 1, 2, 3, 4, 5)
	if s.e2e.Count() != 1000 {
		t.Fatal("zero sent stamp must not record")
	}
}

// TestSpanDrainCanonical: Drain output is sorted by start time, ties
// broken by track, whatever order the spans were recorded in.
func TestSpanDrainCanonical(t *testing.T) {
	var r SpanRecorder
	r.Record("cpu2", "round", 100, 10)
	r.Record("cpu0", "round", 50, 5)
	r.Record("cpu1", "round", 100, 10)
	r.Record("cpu0", "round", 100, 20)
	out := r.Drain()
	if len(out) != 4 {
		t.Fatalf("drained %d spans, want 4", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].StartNs < out[i-1].StartNs {
			t.Fatal("Drain not start-ordered")
		}
	}
	if out[0].Track != "cpu0" || out[1].Track != "cpu0" || out[2].Track != "cpu1" || out[3].Track != "cpu2" {
		t.Fatalf("tie-break order wrong: %+v", out)
	}
	r.Reset()
	if len(r.Drain()) != 0 {
		t.Fatal("Reset did not clear the recorder")
	}
}

// TestChromeTraceRoundTrip: exported traces validate, and validation
// rejects malformed input.
func TestChromeTraceRoundTrip(t *testing.T) {
	var r SpanRecorder
	r.Record("cpu0", "round", 1000, 500)
	r.Record("eth0.wire", "tx", 1200, 300)
	r.Record("cpu0", "round", 2000, 100)
	var bufw bufWriter
	if err := WriteChromeTrace(&bufw, r.Drain()); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(bufw.b)
	if err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	if n != 3 {
		t.Fatalf("validated %d complete events, want 3", n)
	}
	if _, err := ValidateChromeTrace([]byte("{}")); err == nil {
		t.Fatal("non-array JSON must fail validation")
	}
	if _, err := ValidateChromeTrace([]byte("[]")); err == nil {
		t.Fatal("empty trace must fail validation")
	}
}

type bufWriter struct{ b []byte }

func (w *bufWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
