// Package load is the runtime's load-signal surface and the balancing
// plans that read it.
//
// The runtime balances at two levels — task stealing inside a team (the
// paper's NA-RP/NA-WS) and whole-job migration between shard teams — and
// each level decides from the same small picture of an entity (a serving
// team): queued work per priority class, work in flight, capacity, and
// the smoothed job run time (Signals). This package holds that picture and the decisions
// made from it:
//
//   - one plan per balancing level, each reading Signals instead of
//     probing other layers (policy.go: CondRandom, PowerOfTwo,
//     FillIdle); admission alone chooses among
//     policies behind one interface (AdmitPolicy, admit.go), and
//     weighted-fair multi-tenant admission keeps its own state
//     (tenant.go);
//   - the Table IV task-size classes (Grain, grain.go) that the paper's
//     DLB guidelines are keyed by.
//
// A team's DLB configuration is fixed when the team is built; nothing
// here retunes it. The package deliberately depends only on leaf packages
// (stats, rng) so that core, xomp, and the tools can all consume it
// without cycles.
package load

// DefaultAlpha is the EWMA smoothing factor of the job run-time signal
// (Signals.JobNS): heavy enough that one outlier job cannot swing the
// shed predictor, light enough that a real change in job size
// propagates within a handful of completions.
const DefaultAlpha = 0.3

// Signals is one serving team's load picture at a point in time — a
// shard of a pool, as the dispatch, migration and admission
// decisions compare it. Fields read fresh from the team's service gauges
// (core.Team.Signals); none is cached.
type Signals struct {
	// QueueDepth is waiting work: submitted-but-unadopted jobs.
	QueueDepth float64
	// ClassQueueDepth splits QueueDepth by admission priority class,
	// indexed by Class value. Under strict priority-order adoption the
	// work ahead of a class-c submission is the sum over classes of equal
	// or higher priority (EffectiveDepth), which class-aware dispatch and
	// the DeadlineShed admission predictor compare.
	ClassQueueDepth [NumClasses]float64
	// Running is work in flight: adopted-but-unfinished jobs.
	Running float64
	// Capacity is the execution capacity: the team's workers.
	Capacity float64
	// JobNS is the EWMA-smoothed mean whole-job run time in nanoseconds
	// (adoption to quiescence; 0 before the first job completes). It is
	// the service-time estimate deadline-aware admission predicts with.
	JobNS float64
}

// Load is the entity's demand per unit of capacity: queued plus running
// work over capacity. A value above 1 means oversubscription.
func (s Signals) Load() float64 {
	c := s.Capacity
	if c < 1 {
		c = 1
	}
	return (s.QueueDepth + s.Running) / c
}
