// Package stats provides the summary statistics the benchmark harness
// reports: online mean/variance (Welford), percentiles, and normal-theory
// confidence half-widths for the error bars the paper draws on its
// figures (e.g. Fig. 7's best-DLB bars).
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample accumulates observations. The zero value is ready to use.
type Sample struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations (Welford)
	min  float64
	max  float64
	vals []float64 // kept for percentiles
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	s.vals = append(s.vals, x)
}

// AddDuration records a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the observation count.
func (s *Sample) N() int { return s.n }

// Min returns the smallest observation (0 when empty).
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Variance()) }

// StderrMean returns the standard error of the mean.
func (s *Sample) StderrMean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Stddev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of a ~95% confidence interval for the mean
// using the normal approximation (1.96σ/√n). For the small n typical of
// benchmark repetitions this understates the t-distribution slightly; the
// harness reports it as an indication, as the paper's error bars do.
func (s *Sample) CI95() float64 { return 1.96 * s.StderrMean() }

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics. It returns 0 when empty.
func (s *Sample) Percentile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	sorted := append([]float64(nil), s.vals...)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// MeanDuration returns the mean as a time.Duration (observations must
// have been seconds, as AddDuration records).
func (s *Sample) MeanDuration() time.Duration {
	return time.Duration(s.mean * float64(time.Second))
}

// String renders "mean ±ci95 (n=..)" with seconds formatting.
func (s *Sample) String() string {
	if s.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("%.4gs ±%.2gs (n=%d)", s.mean, s.CI95(), s.n)
}

// EWMA is an exponentially weighted moving average: each Update moves the
// value a fixed fraction (the smoothing factor alpha) toward the new
// observation, so recent observations dominate while older ones decay
// geometrically. The profile uses it to smooth job run times into the
// job-time signal, and weighted-fair admission per-tenant service times,
// without retaining history. The zero value is empty; the first Update
// adopts the observation unsmoothed so a fresh signal does not start from
// a meaningless zero.
type EWMA struct {
	alpha float64
	value float64
	set   bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1];
// higher alpha reacts faster, lower alpha smooths harder. Out-of-range
// alphas are clamped into (0, 1] (non-positive becomes 0.2, the plane's
// default).
func NewEWMA(alpha float64) EWMA {
	if alpha <= 0 {
		alpha = 0.2
	}
	if alpha > 1 {
		alpha = 1
	}
	return EWMA{alpha: alpha}
}

// Update folds one observation into the average and returns the new value.
func (e *EWMA) Update(x float64) float64 {
	if !e.set {
		e.value, e.set = x, true
		return x
	}
	e.value += e.alpha * (x - e.value)
	return e.value
}

// Value returns the current smoothed value (0 when no Update has run).
func (e *EWMA) Value() float64 { return e.value }

// Set reports whether at least one observation has been folded in.
func (e *EWMA) Set() bool { return e.set }

// Jain computes Jain's fairness index over per-entity allocations:
// (Σx)² / (n·Σx²), 1 when all allocations are equal, approaching 1/n
// when one entity takes everything. Returns 0 for an empty or all-zero
// input. Feed weight-normalized allocations (x_i/w_i) to score weighted
// fairness.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
