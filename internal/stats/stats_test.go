package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBasicMoments(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.mean; math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", got)
	}
	// Population stddev of this classic set is 2; sample variance = 32/7.
	if got := s.Variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", got, 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.mean != 0 || s.Variance() != 0 || s.CI95() != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample must report zeros")
	}
	if s.String() != "n=0" {
		t.Errorf("String = %q", s.String())
	}
	s.Add(3)
	if s.Variance() != 0 || s.Stddev() != 0 {
		t.Error("single observation has no variance")
	}
	if s.Median() != 3 || s.Min() != 3 || s.Max() != 3 {
		t.Error("single observation stats wrong")
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {25, 25.75}, {75, 75.25},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestDurations(t *testing.T) {
	var s Sample
	s.AddDuration(100 * time.Millisecond)
	s.AddDuration(300 * time.Millisecond)
	if got := s.MeanDuration(); got != 200*time.Millisecond {
		t.Errorf("MeanDuration = %v", got)
	}
}

// Property: Welford mean/variance agree with the two-pass formulas.
func TestWelfordMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var s Sample
		var sum float64
		for _, v := range raw {
			s.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, v := range raw {
			d := float64(v) - mean
			m2 += d * d
		}
		wantVar := m2 / float64(len(raw)-1)
		return math.Abs(s.mean-mean) < 1e-6*(1+math.Abs(mean)) &&
			math.Abs(s.Variance()-wantVar) < 1e-6*(1+wantVar)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(float64(v))
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := s.Percentile(p)
			if v < prev || v < s.Min()-1e-9 || v > s.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
