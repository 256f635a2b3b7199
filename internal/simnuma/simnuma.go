// Package simnuma is the synthetic NUMA memory-cost model (substitution S13
// in DESIGN.md).
//
// The paper's locality results come from hardware asymmetry on an 8-socket
// machine: a task touching data homed on a remote socket pays higher memory
// latency than one touching local data. This repository runs on arbitrary
// (often single-socket) hosts, so the *price* of remoteness is synthesized:
// workloads declare a home zone for each task's working set and call Access,
// which burns a calibrated amount of CPU proportional to the number of
// accesses and to whether the executing worker is in the home zone. The
// scheduler and load balancers are completely unaware of the model — they
// make exactly the decisions they would on hardware, and the model only
// makes those decisions observable in measured run time.
//
// Work units: one "unit" is one iteration of a xorshift spin loop,
// calibrated against the wall clock at model construction. The paper's task
// sizes are reported in rdtscp cycles; a unit plays the same role here
// (roughly a handful of cycles per unit depending on host).
package simnuma

import (
	"sync/atomic"
	"time"

	"repro/internal/numa"
)

// Model charges synthetic memory-access costs. It is immutable after
// construction and safe for concurrent use.
type Model struct {
	top numa.Topology
	// unitsPerLocal and unitsPerRemote are spin units charged per access.
	unitsPerLocal  int
	unitsPerRemote int
}

// sink defeats dead-code elimination of spin loops. Spin runs on many
// workers concurrently, so the single write per call is atomic.
var sink atomic.Uint64

// Spin burns approximately n units of CPU and is the package's time
// currency. It is exported so workload generators can synthesize tasks of a
// chosen computational size in the same units the model charges. Safe for
// concurrent use.
func Spin(n int) {
	x := uint64(n)*0x9e3779b97f4a7c15 + 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink.Add(x)
}

// UnitsPerMicrosecond reports how many spin units this host executes per
// microsecond, measured over a short calibration loop. The first call pays
// the calibration cost; the result is cached.
func UnitsPerMicrosecond() float64 {
	calibrateOnce()
	return unitsPerMicro
}

var (
	calibrated     bool
	unitsPerMicro  float64
	calibrationRun = func() {
		const probe = 1 << 22
		start := time.Now()
		Spin(probe)
		elapsed := time.Since(start)
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		unitsPerMicro = float64(probe) / (float64(elapsed) / float64(time.Microsecond))
	}
)

func calibrateOnce() {
	// Benchmarks construct models before spawning workers, so plain
	// single-threaded initialization is sufficient; guard anyway.
	if !calibrated {
		calibrationRun()
		calibrated = true
	}
}

// Config sets the latency asymmetry of a Model.
type Config struct {
	// LocalNS is the modelled cost of one NUMA-local access in nanoseconds.
	// The paper cites a few nanoseconds for cache-served local accesses.
	LocalNS float64
	// RemoteNS is the modelled cost of one NUMA-remote access. The paper
	// cites ~100 ns for cross-socket atomic/memory traffic.
	RemoteNS float64
}

// NewModel builds a model for the given topology. Costs below the
// resolution of one spin unit are rounded up to one unit so that remote is
// always at least as expensive as local.
func NewModel(top numa.Topology, cfg Config) *Model {
	calibrateOnce()
	toUnits := func(ns float64) int {
		u := int(ns / 1000 * unitsPerMicro)
		if u < 1 {
			u = 1
		}
		return u
	}
	m := &Model{
		top:            top,
		unitsPerLocal:  toUnits(cfg.LocalNS),
		unitsPerRemote: toUnits(cfg.RemoteNS),
	}
	if m.unitsPerRemote < m.unitsPerLocal {
		m.unitsPerRemote = m.unitsPerLocal
	}
	return m
}

// AccessCostUnits returns the per-access spin units charged to worker w for
// data homed in zone home.
func (m *Model) AccessCostUnits(w, home int) int {
	if m.top.ZoneOf(w) == home {
		return m.unitsPerLocal
	}
	return m.unitsPerRemote
}

// Access charges worker w for n accesses to data homed in zone home.
func (m *Model) Access(w, home, n int) {
	if n <= 0 {
		return
	}
	Spin(n * m.AccessCostUnits(w, home))
}
