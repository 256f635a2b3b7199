package stats

import "math/bits"

// HDR-style log-linear histogram for cross-process latency merging.
//
// The fleet loadgen needs percentiles over samples recorded in many
// client processes: raw samples cannot be shipped (millions of jobs) and
// per-client percentiles cannot be averaged (a p99 of p99s is not the
// fleet p99). The standard answer is a mergeable histogram with bounded
// relative error — log2 major buckets, each split into histSub linear
// sub-buckets, giving ≤ 1/histSub (~3%) relative error over the full
// int64 range in a fixed 1920-bucket array. Two histograms merge by
// adding counts bucket-wise, so a fleet of clients reports one exact
// aggregate distribution.

// histSubBits sets the sub-bucket resolution: 1<<histSubBits linear
// sub-buckets per power of two.
const histSubBits = 5

// histSub is the sub-bucket count per major (power-of-two) bucket.
const histSub = 1 << histSubBits

// HistBuckets is the fixed bucket-array length: values below histSub
// get exact unit buckets, and each of the 64-histSubBits remaining
// exponents contributes histSub sub-buckets.
const HistBuckets = (64 - histSubBits + 1) * histSub

// Histogram is a fixed-size mergeable latency histogram. Record is
// allocation-free and O(1); Merge adds another histogram's counts;
// Percentile walks the cumulative counts. The zero value is ready to
// use. Not safe for concurrent use.
type Histogram struct {
	counts [HistBuckets]uint64
	total  uint64
	min    int64
	max    int64
}

// histBucket maps a non-negative value to its bucket index. Values below
// histSub map to themselves (exact); above, the histSubBits bits below
// the leading bit select the linear sub-bucket.
func histBucket(v int64) int {
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // >= histSubBits
	sub := (u >> (uint(exp) - histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)<<histSubBits | int(sub)
}

// BucketValue returns the lower bound of bucket idx — the value
// Percentile reports for samples landing in it.
func BucketValue(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	block := idx >> histSubBits
	sub := idx & (histSub - 1)
	return int64(histSub+sub) << uint(block-1)
}

// Record adds one sample. Negative samples clamp to zero (a latency
// below clock resolution).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total++
	h.counts[histBucket(v)]++
}

// Merge adds o's samples into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Percentile returns the value at percentile p in [0,100]: the lower
// bound of the bucket holding the p-th sample (bounded relative error),
// with the exact extremes substituted at the edges.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(p / 100 * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			return BucketValue(i)
		}
	}
	return h.max
}

// ForEachBucket calls fn for every non-empty bucket in ascending value
// order — the sparse export the fleet report serializes.
func (h *Histogram) ForEachBucket(fn func(idx int, count uint64)) {
	for i, c := range h.counts {
		if c != 0 {
			fn(i, c)
		}
	}
}

// AddBucket adds count pre-bucketed samples to bucket idx — the sparse
// import side of a fleet report. The bucket's lower bound stands in for
// the original samples in min/max/mean, keeping merged summaries
// consistent across processes. Out-of-range indexes are ignored.
func (h *Histogram) AddBucket(idx int, count uint64) {
	if idx < 0 || idx >= HistBuckets || count == 0 {
		return
	}
	v := BucketValue(idx)
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total += count
	h.counts[idx] += count
}
