// Package scenario generates the seeded workload corpus: named,
// production-shaped job-arrival traces (replay.JobTrace) built from
// internal/rng alone — no time.Now, no global state — so the same
// (name, seed) pair always yields byte-identical serialized traces. The
// golden .jsonl files under testdata/scenarios/ are snapshots of these
// generators; regression tests replay them through competing policy
// configurations so a tuning change is judged against the same traffic
// every time, the workload-corpus methodology LB4OMP applies to
// scheduling techniques.
//
// Presets (sizes are simnuma spin units, ~600 units/µs on the reference
// host, so traces stay replayable in real time on small machines):
//
//   - steady: a calm Poisson mix of all three classes with generous
//     interactive deadlines — nothing sheds, nothing expires; the
//     determinism baseline.
//   - flash-crowd: uniform ≈1ms interactive/batch traffic, then a burst
//     of ≈10ms short-deadline background jobs — the trace that separates
//     DeadlineShed from BlockWhenFull on interactive latency.
//   - zipf: one class, eight tenants, zipf-skewed (s=1.6) — pinned
//     tenant→shard placement turns the skew into a deterministically hot
//     shard for job migration to drain.
//   - diurnal: a day phase (fast, interactive-heavy) switching to a
//     night phase (slow, heavy batch/background) halfway through.
//   - deadline-mix: uniform arrivals over four deadline profiles, from
//     15ms-tight to none.
//   - tenant-storm: four steady victim tenants, then one tenant ramping
//     to ≈90% of arrivals mid-trace — the noisy-neighbor trace that
//     separates WFQAdmit from BlockWhenFull on victim admission latency.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/load"
	"repro/internal/replay"
	"repro/internal/rng"
)

// GoldenSeed is the seed the checked-in corpus under testdata/scenarios/
// was generated with (see each file's header).
const GoldenSeed = 42

// generator builds one preset's arrival events from a seeded stream.
type generator struct {
	build func(r *rng.State) []replay.JobEvent
	// weights, when non-nil, are the trace's per-tenant fair-share
	// weights; they land in the trace header so a weighted-fair replay
	// sees the scenario's intended tenancy.
	weights map[int]float64
}

// presets maps scenario names to their generators. Iteration for Names is
// sorted, so ordering here is cosmetic.
var presets = map[string]generator{
	"steady":       {genSteady, nil},      // calm three-class Poisson mix, generous deadlines
	"flash-crowd":  {genFlashCrowd, nil},  // baseline traffic plus a short-deadline background burst
	"zipf":         {genZipf, nil},        // zipf-skewed tenants (s=1.6) over one batch class
	"diurnal":      {genDiurnal, nil},     // interactive day phase shifting to heavy night batch
	"deadline-mix": {genDeadlineMix, nil}, // uniform mix of tight/moderate/loose/no deadlines
	// One tenant ramping to ~90% of arrivals mid-trace.
	"tenant-storm": {genTenantStorm,
		// Victims carry twice the storm's weight — the paying-tenant
		// shape: a weighted-fair policy grants them a burst slice wide
		// enough that their own clustered arrivals never trip the share
		// floor, while the storm's slice (and so the queue residence
		// victims wait behind) shrinks.
		map[int]float64{0: 2, 1: 2, 2: 2, 3: 2, 9: 1}},
}

// Names returns the preset scenario names, sorted.
func Names() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Generate builds the named scenario from seed. The generation consumes
// only the seeded rng stream, so equal (name, seed) pairs produce equal
// traces — byte-identical once serialized, the corpus' golden contract.
func Generate(name string, seed uint64) (*replay.JobTrace, error) {
	g, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	r := rng.New(seed)
	jobs := g.build(&r)
	// Multi-stream scenarios interleave; the trace format wants arrival
	// order. Stable sort keeps equal-offset events in generation order,
	// which is itself deterministic.
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].At < jobs[j].At })
	return &replay.JobTrace{Name: name, Seed: seed, Weights: g.weights, Jobs: jobs}, nil
}

// expNS draws an exponential inter-arrival gap in nanoseconds for a
// Poisson process of rate arrivals/second.
func expNS(r *rng.State, rate float64) int64 {
	// Float64 is in [0,1), so 1-u is in (0,1] and Log never sees 0.
	return int64(-math.Log(1-r.Float64()) / rate * float64(time.Second))
}

// jitter spreads size ±25% around base, never below 1.
func jitter(r *rng.State, base int) int {
	s := base + r.Intn(base/2+1) - base/4
	if s < 1 {
		s = 1
	}
	return s
}

// zipfCDF precomputes the cumulative distribution of a zipf(s) law over
// ranks 1..n.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// drawCDF samples an index from a cumulative distribution.
func drawCDF(r *rng.State, cdf []float64) int {
	u := r.Float64()
	for i, c := range cdf {
		if u < c {
			return i
		}
	}
	return len(cdf) - 1
}

func genSteady(r *rng.State) []replay.JobEvent {
	const (
		span = 120 * int64(time.Millisecond)
		rate = 2000.0
	)
	var jobs []replay.JobEvent
	for at := expNS(r, rate); at < span; at += expNS(r, rate) {
		ev := replay.JobEvent{At: at, Tenant: r.Intn(4)}
		switch u := r.Float64(); {
		case u < 0.30:
			ev.Class = int(load.ClassInteractive)
			ev.Size = jitter(r, 2000)
			// Generous against the trace's total work: steady must never
			// shed or expire — it is the determinism baseline.
			ev.Deadline = int64(500 * time.Millisecond)
		case u < 0.80:
			ev.Class = int(load.ClassBatch)
			ev.Size = jitter(r, 8000)
		default:
			ev.Class = int(load.ClassBackground)
			ev.Size = jitter(r, 24000)
		}
		jobs = append(jobs, ev)
	}
	return jobs
}

func genFlashCrowd(r *rng.State) []replay.JobEvent {
	// The shape is built around the shed predictor's dynamics (ETA =
	// slack × JobNS-EWMA × depth term, gated on saturation). Every
	// non-crowd job is the same ≈1ms size, so the job-time EWMA holds a
	// stable ≈1ms floor no matter which stream's completions dominate —
	// tiny interactive jobs would crash the EWMA between crowd
	// completions and let crowd leak through the predictor. Against that
	// floor the 3ms crowd deadline can never be met (a crowd job alone
	// runs ≈10ms), so a warmed, saturated predictor sheds the crowd from
	// its first arrival; the batch ramp just before the crowd guarantees
	// the saturation gate is already latched when the crowd hits.
	const (
		span       = 200 * int64(time.Millisecond)
		rampStart  = 45 * int64(time.Millisecond)
		rampEnd    = 55 * int64(time.Millisecond)
		interStart = 50 * int64(time.Millisecond)
		interEnd   = 130 * int64(time.Millisecond)
		crowdStart = 55 * int64(time.Millisecond)
		crowdJobs  = 240
		unitMS     = 600000 // ≈1ms of work on the reference host
	)
	var jobs []replay.JobEvent
	// Baseline batch trickle across the whole span: anchors the EWMA at
	// ≈1ms before the crowd and keeps it there after.
	for at := expNS(r, 100); at < span; at += expNS(r, 100) {
		jobs = append(jobs, replay.JobEvent{
			At: at, Class: int(load.ClassBatch),
			Size: jitter(r, unitMS), Tenant: 4 + r.Intn(2),
		})
	}
	// Batch ramp: a 10ms burst that saturates the pool right as the
	// crowd arrives, so the shed gate is open for the first crowd job.
	for at := rampStart + expNS(r, 2000); at < rampEnd; at += expNS(r, 2000) {
		jobs = append(jobs, replay.JobEvent{
			At: at, Class: int(load.ClassBatch),
			Size: jitter(r, unitMS), Tenant: 4 + r.Intn(2),
		})
	}
	// The interactive stream under measurement, overlapping the crowd
	// window: latency-sensitive, deadline loose enough to always finish.
	for at := interStart + expNS(r, 450); at < interEnd; at += expNS(r, 450) {
		jobs = append(jobs, replay.JobEvent{
			At: at, Class: int(load.ClassInteractive),
			Size: jitter(r, unitMS), Deadline: int64(40 * time.Millisecond),
			Tenant: r.Intn(4),
		})
	}
	// The crowd: heavy background jobs (≈10ms of work each, ten times
	// anything else) with a 3ms deadline nothing can honor. Admitted,
	// each one locks a worker for 10ms the interactive stream has to
	// wait behind; shed, it vanishes at the door.
	at := crowdStart
	for i := 0; i < crowdJobs; i++ {
		at += expNS(r, 4000)
		jobs = append(jobs, replay.JobEvent{
			At: at, Class: int(load.ClassBackground),
			Size: jitter(r, 10*unitMS), Deadline: int64(3 * time.Millisecond),
			Tenant: 9,
		})
	}
	return jobs
}

func genZipf(r *rng.State) []replay.JobEvent {
	const (
		span    = 150 * int64(time.Millisecond)
		rate    = 1800.0
		tenants = 8
	)
	cdf := zipfCDF(tenants, 1.6)
	var jobs []replay.JobEvent
	for at := expNS(r, rate); at < span; at += expNS(r, rate) {
		jobs = append(jobs, replay.JobEvent{
			At: at, Class: int(load.ClassBatch),
			Size: jitter(r, 240000), Tenant: drawCDF(r, cdf),
		})
	}
	return jobs
}

func genDiurnal(r *rng.State) []replay.JobEvent {
	const (
		span  = 200 * int64(time.Millisecond)
		shift = 100 * int64(time.Millisecond)
	)
	var jobs []replay.JobEvent
	at := int64(0)
	for {
		day := at < shift
		rate := 700.0
		if day {
			rate = 2400
		}
		at += expNS(r, rate)
		if at >= span {
			return jobs
		}
		ev := replay.JobEvent{At: at, Tenant: r.Intn(6)}
		u := r.Float64()
		if day {
			switch {
			case u < 0.50:
				ev.Class = int(load.ClassInteractive)
				ev.Size = jitter(r, 2000)
				ev.Deadline = int64(60 * time.Millisecond)
			case u < 0.90:
				ev.Class = int(load.ClassBatch)
				ev.Size = jitter(r, 8000)
			default:
				ev.Class = int(load.ClassBackground)
				ev.Size = jitter(r, 16000)
			}
		} else {
			switch {
			case u < 0.10:
				ev.Class = int(load.ClassInteractive)
				ev.Size = jitter(r, 2000)
				ev.Deadline = int64(60 * time.Millisecond)
			case u < 0.50:
				ev.Class = int(load.ClassBatch)
				ev.Size = jitter(r, 40000)
			default:
				ev.Class = int(load.ClassBackground)
				ev.Size = jitter(r, 120000)
			}
		}
		jobs = append(jobs, ev)
	}
}

func genTenantStorm(r *rng.State) []replay.JobEvent {
	// The noisy-neighbor trace. Four victim tenants submit a calm ≈1ms
	// batch stream with deadlines loose enough to always finish on an
	// unloaded pool, but tight enough that waiting behind a saturated
	// backlog expires them — the victim-visible damage signal. Tenant 9
	// then ramps to ≈90% of all arrivals: under BlockWhenFull its
	// submitters stack up at the admission edge and every victim waits
	// (then expires) behind them; under WFQAdmit the over-share storm is
	// shed at the door and victims admit at unloaded latency. All jobs
	// are the same ≈1ms size so the comparison isolates *whose* work
	// queues, not how big it is.
	const (
		span       = 200 * int64(time.Millisecond)
		stormStart = 60 * int64(time.Millisecond)
		unitMS     = 600000 // ≈1ms of work on the reference host
	)
	var jobs []replay.JobEvent
	// Victims: tenants 0-3, ≈400 arrivals/s combined across the span.
	// The 50ms deadline clears a share-bounded queue (≈12 unit jobs of
	// wait) with 4x headroom for slow hosts, but not the storm's
	// unbounded blocked-submitter pile-up under blocking admission.
	for at := expNS(r, 400); at < span; at += expNS(r, 400) {
		jobs = append(jobs, replay.JobEvent{
			At: at, Class: int(load.ClassBatch),
			Size: jitter(r, unitMS), Deadline: int64(50 * time.Millisecond),
			Tenant: r.Intn(4),
		})
	}
	// The storm: tenant 9 at ≈3600 arrivals/s from stormStart — ≈90% of
	// all arrivals while it lasts. No deadline: nothing thins the storm
	// except the admission policy under test.
	for at := stormStart + expNS(r, 3600); at < span; at += expNS(r, 3600) {
		jobs = append(jobs, replay.JobEvent{
			At: at, Class: int(load.ClassBatch),
			Size: jitter(r, unitMS), Tenant: 9,
		})
	}
	return jobs
}

func genDeadlineMix(r *rng.State) []replay.JobEvent {
	const (
		span = 120 * int64(time.Millisecond)
		rate = 1500.0
	)
	var jobs []replay.JobEvent
	for at := expNS(r, rate); at < span; at += expNS(r, rate) {
		ev := replay.JobEvent{At: at, Tenant: r.Intn(6)}
		switch r.Intn(4) {
		case 0: // tight
			ev.Class = int(load.ClassInteractive)
			ev.Size = jitter(r, 4000)
			ev.Deadline = int64(15 * time.Millisecond)
		case 1: // moderate
			ev.Class = int(load.ClassBatch)
			ev.Size = jitter(r, 20000)
			ev.Deadline = int64(60 * time.Millisecond)
		case 2: // loose
			ev.Class = int(load.ClassBatch)
			ev.Size = jitter(r, 40000)
			ev.Deadline = int64(250 * time.Millisecond)
		default: // none
			ev.Class = int(load.ClassBackground)
			ev.Size = jitter(r, 60000)
		}
		jobs = append(jobs, ev)
	}
	return jobs
}
