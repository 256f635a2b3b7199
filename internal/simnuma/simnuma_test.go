package simnuma

import (
	"testing"
	"time"

	"repro/internal/numa"
)

func TestCalibration(t *testing.T) {
	u := UnitsPerMicrosecond()
	if u <= 0 {
		t.Fatalf("units/µs = %v, want positive", u)
	}
}

func TestAccessCostAsymmetry(t *testing.T) {
	top := numa.Synthetic(4, 2)
	m := NewModel(top, Config{LocalNS: 2, RemoteNS: 100})
	// Worker 0 is in zone 0; worker 3 in zone 1.
	local := m.AccessCostUnits(0, 0)
	remote := m.AccessCostUnits(0, 1)
	if remote <= local {
		t.Fatalf("remote cost %d not greater than local %d", remote, local)
	}
	if m.AccessCostUnits(3, 1) != local {
		t.Fatalf("worker 3 accessing its own zone should pay the local rate")
	}
	if remote < 2*local {
		t.Errorf("penalty ratio %d/%d too small for 2ns vs 100ns", remote, local)
	}
}

func TestRemoteNeverCheaperThanLocal(t *testing.T) {
	top := numa.Synthetic(2, 2)
	m := NewModel(top, Config{LocalNS: 50, RemoteNS: 1}) // inverted on purpose
	if m.AccessCostUnits(0, 1) < m.AccessCostUnits(0, 0) {
		t.Fatal("model allowed remote < local")
	}
}

func TestAccessBurnsTime(t *testing.T) {
	top := numa.Synthetic(2, 2)
	m := NewModel(top, Config{LocalNS: 2, RemoteNS: 100})
	const accesses = 3000
	start := time.Now()
	m.Access(0, 1, accesses) // remote: ~100ns each → ~300µs
	remote := time.Since(start)
	start = time.Now()
	m.Access(0, 0, accesses) // local: ~2ns each
	local := time.Since(start)
	if remote < 10*local {
		t.Logf("remote=%v local=%v (timer noise possible)", remote, local)
	}
	if remote <= local {
		t.Fatalf("remote access (%v) not slower than local (%v)", remote, local)
	}
}

func TestAccessZeroIsNoop(t *testing.T) {
	top := numa.Synthetic(1, 1)
	m := NewModel(top, Config{LocalNS: 2, RemoteNS: 100})
	m.Access(0, 0, 0)
	m.Access(0, 0, -5)
}

func TestSpinScalesRoughlyLinearly(t *testing.T) {
	// Warm up.
	Spin(1 << 20)
	timeFor := func(n int) time.Duration {
		best := time.Hour
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			Spin(n)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	small := timeFor(1 << 18)
	large := timeFor(1 << 22) // 16x the work
	ratio := float64(large) / float64(small)
	if ratio < 4 || ratio > 64 {
		t.Errorf("16x work took %.1fx time; spin is not usable as a clock", ratio)
	}
}
