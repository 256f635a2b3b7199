package stats

import (
	"testing"

	"repro/internal/rng"
)

// TestHistBucketContinuity: the bucket map must be monotone and
// exhaustive — every value lands in exactly one bucket whose lower
// bound is ≤ the value, with bounded relative error above histSub.
func TestHistBucketContinuity(t *testing.T) {
	last := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<62 + 12345} {
		idx := histBucket(v)
		if idx <= last && v > 0 {
			// indexes must not decrease as values grow
			t.Fatalf("bucket(%d) = %d not above previous %d", v, idx, last)
		}
		last = idx
		lo := BucketValue(idx)
		if lo > v {
			t.Fatalf("bucket(%d) lower bound %d exceeds value", v, lo)
		}
		if idx+1 < HistBuckets {
			if hi := BucketValue(idx + 1); hi <= v {
				t.Fatalf("bucket(%d): next bucket starts at %d, value escaped", v, hi)
			}
		}
		// Relative error bound: lower bound within 1/histSub of the value.
		if v >= histSub {
			if err := float64(v-lo) / float64(v); err > 1.0/histSub {
				t.Fatalf("bucket(%d): relative error %.4f > %.4f", v, err, 1.0/histSub)
			}
		}
	}
	// Exact unit buckets below histSub.
	for v := int64(0); v < histSub; v++ {
		if histBucket(v) != int(v) || BucketValue(int(v)) != v {
			t.Fatalf("value %d not exact below histSub", v)
		}
	}
}

// TestHistogramPercentiles: against a known uniform distribution the
// percentile must land within one bucket of the true value.
func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	const n = 100_000
	for i := int64(1); i <= n; i++ {
		h.Record(i)
	}
	if h.Count() != n {
		t.Fatalf("count %d", h.Count())
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		want := float64(n) * p / 100
		got := float64(h.Percentile(p))
		if got < want*0.96 || got > want*1.04 {
			t.Fatalf("p%g = %.0f, want ~%.0f", p, got, want)
		}
	}
	if h.min != 1 || h.Max() != n {
		t.Fatalf("min/max %d/%d", h.min, h.Max())
	}
}

// TestHistogramMergeEquivalence: recording a sample stream into k
// histograms and merging must give bucket-identical results to
// recording the stream into one histogram — the property the client's
// per-connection aggregation depends on.
func TestHistogramMergeEquivalence(t *testing.T) {
	r := rng.New(7)
	var whole Histogram
	parts := make([]Histogram, 4)
	for i := 0; i < 50_000; i++ {
		v := int64(r.Intn(10_000_000))
		whole.Record(v)
		parts[i%len(parts)].Record(v)
	}
	var merged Histogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.Count() != whole.Count() || merged.min != whole.min || merged.Max() != whole.Max() {
		t.Fatalf("merge summary drift: count %d/%d min %d/%d max %d/%d",
			merged.Count(), whole.Count(), merged.min, whole.min, merged.Max(), whole.Max())
	}
	if merged.counts != whole.counts {
		t.Fatal("merged bucket counts differ from whole-stream counts")
	}
	for _, p := range []float64{50, 99} {
		if merged.Percentile(p) != whole.Percentile(p) {
			t.Fatalf("p%g differs after merge", p)
		}
	}
}

// TestHistogramRecordZeroAlloc: Record must stay allocation-free — it
// sits on the per-result hot path of every loadgen client.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(123456) }); allocs > 0 {
		t.Fatalf("Record allocates %.1f/op", allocs)
	}
}
