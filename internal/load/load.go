// Package load is the runtime's unified load-signal plane and the
// balancing plans that read it.
//
// The runtime balances at three levels — task stealing inside a team (the
// paper's NA-RP/NA-WS), whole-job migration between shard teams, and
// worker-quota moves between shards — and before this package each level
// derived its own ad-hoc load estimate by reaching into another layer's
// internals. Following the two-level DLB observation that the levels
// should *share* load information, this package factors the common ground
// out:
//
//   - a signal plane: a small set of uniformly sampled, EWMA-smoothed
//     signals per entity (worker or shard) — queue depth, steal-request
//     rate, task service time, task rate, idle ratio — published
//     lock-free by their single writer and snapshotted by any reader
//     (Cell, Plane, Sampler);
//   - one plan per balancing level, each reading Signals instead of
//     probing other layers (policy.go: CondRandom, PowerOfTwo,
//     GapHalving, OversubscribedQuota); admission alone chooses among
//     policies behind one interface (AdmitPolicy, admit.go);
//   - an adaptive controller (Adaptive, adaptive.go) that classifies the
//     running workload's granularity from the signal plane and decides
//     when the balancing configuration should be retuned, with hysteresis
//     against flapping.
//
// The package deliberately depends only on leaf packages (stats, rng) so
// that core, xomp, and the tools can all consume it without cycles.
package load

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Signals is one entity's load picture at a point in time. The same struct
// describes a worker (within a team) and a shard (a whole serving team
// within a pool); fields that make no sense at one level read zero there.
type Signals struct {
	// QueueDepth is waiting work: submitted-but-unadopted jobs for a
	// shard; 0 for a worker (per-worker task-queue depth is not cheaply
	// observable in the lock-less substrates).
	QueueDepth float64
	// ClassQueueDepth splits QueueDepth by admission priority class,
	// indexed by Class value (shard level only; all-zero for a worker).
	// Under strict priority-order adoption the work ahead of a class-c
	// submission is the sum over classes of equal or higher priority
	// (EffectiveDepth), which class-aware dispatch and the DeadlineShed
	// admission predictor compare.
	ClassQueueDepth [NumClasses]float64
	// Running is work in flight: adopted-but-unfinished jobs for a shard;
	// the worker's busy fraction (1 - IdleRatio) for a worker.
	Running float64
	// Capacity is the entity's active execution capacity: active
	// (unparked) workers for a shard, 1 for a worker.
	Capacity float64
	// ServiceNS is the EWMA-smoothed mean task service time in
	// nanoseconds, from uniform 1-in-serviceSampleEvery task samples.
	ServiceNS float64
	// TaskRate is the EWMA-smoothed task completion rate in tasks/sec.
	TaskRate float64
	// StealRate is the EWMA-smoothed DLB steal-request send rate in
	// requests/sec.
	StealRate float64
	// IdleRatio is the EWMA-smoothed fraction of scheduling-point visits
	// spent idle (no task to run), in [0, 1].
	IdleRatio float64
	// JobNS is the EWMA-smoothed mean whole-job run time in nanoseconds
	// (adoption to quiescence; shard level only, 0 for a worker and
	// before the first job completes). It is the service-time estimate at
	// job granularity that deadline-aware admission predicts with —
	// ServiceNS describes leaf tasks, which a job comprises many of.
	JobNS float64
}

// Load is the entity's demand per unit of capacity: queued plus running
// work over active capacity. A value above 1 means oversubscription.
func (s Signals) Load() float64 {
	c := s.Capacity
	if c < 1 {
		c = 1
	}
	return (s.QueueDepth + s.Running) / c
}

// Cell is the lock-free publication slot for one entity's Signals: a
// single writer (the entity itself, or its sampler) stores each field as
// atomic float bits, and any reader snapshots them without a lock.
// Individual fields are internally consistent; a snapshot may mix fields
// from two adjacent publications, which is harmless for load signals.
//
// Cell is move-only (repolint:nocopy): a copy is a torn, detached
// snapshot masquerading as a live slot. It is also a packed publication
// group for the falseshare analyzer — all-atomic, single line — so the
// invariant checked is its element size (64 B exactly), not per-field
// isolation.
type Cell struct {
	queueDepth atomic.Uint64
	running    atomic.Uint64
	capacity   atomic.Uint64
	serviceNS  atomic.Uint64
	taskRate   atomic.Uint64
	stealRate  atomic.Uint64
	idleRatio  atomic.Uint64
	_          [8]byte // pad to 64 bytes: adjacent cells stay off one cache line
}

// Publish stores s into the cell. Single writer only.
func (c *Cell) Publish(s Signals) {
	c.queueDepth.Store(math.Float64bits(s.QueueDepth))
	c.running.Store(math.Float64bits(s.Running))
	c.capacity.Store(math.Float64bits(s.Capacity))
	c.serviceNS.Store(math.Float64bits(s.ServiceNS))
	c.taskRate.Store(math.Float64bits(s.TaskRate))
	c.stealRate.Store(math.Float64bits(s.StealRate))
	c.idleRatio.Store(math.Float64bits(s.IdleRatio))
}

// Snapshot returns the most recently published signals. Any goroutine.
func (c *Cell) Snapshot() Signals {
	return Signals{
		QueueDepth: math.Float64frombits(c.queueDepth.Load()),
		Running:    math.Float64frombits(c.running.Load()),
		Capacity:   math.Float64frombits(c.capacity.Load()),
		ServiceNS:  math.Float64frombits(c.serviceNS.Load()),
		TaskRate:   math.Float64frombits(c.taskRate.Load()),
		StealRate:  math.Float64frombits(c.stealRate.Load()),
		IdleRatio:  math.Float64frombits(c.idleRatio.Load()),
	}
}

// Plane is a fixed array of cells, one per entity (the workers of a team,
// or the shards of a pool). Plane is move-only (repolint:nocopy): a copy
// aliases the cell array while detaching the header.
type Plane struct {
	cells []Cell
}

// NewPlane returns a plane covering n entities.
func NewPlane(n int) *Plane { return &Plane{cells: make([]Cell, n)} }

// Cell returns entity i's publication slot.
func (p *Plane) Cell(i int) *Cell { return &p.cells[i] }

// Snapshot copies every entity's current signals.
func (p *Plane) Snapshot() []Signals {
	out := make([]Signals, len(p.cells))
	for i := range p.cells {
		out[i] = p.cells[i].Snapshot()
	}
	return out
}

// Aggregate folds per-entity signals into one entity-set picture: depths,
// rates, and capacities add; service time is weighted by each entity's
// task rate (an entity that runs more tasks describes the workload
// better); idle ratio is the plain mean.
func Aggregate(per []Signals) Signals {
	var agg Signals
	if len(per) == 0 {
		return agg
	}
	var svcWeight, jobWeight float64
	for _, s := range per {
		agg.QueueDepth += s.QueueDepth
		for c := range s.ClassQueueDepth {
			agg.ClassQueueDepth[c] += s.ClassQueueDepth[c]
		}
		agg.Running += s.Running
		agg.Capacity += s.Capacity
		agg.TaskRate += s.TaskRate
		agg.StealRate += s.StealRate
		agg.IdleRatio += s.IdleRatio
		w := s.TaskRate
		if w <= 0 && s.ServiceNS > 0 {
			w = 1 // sampled but rate not yet established
		}
		agg.ServiceNS += s.ServiceNS * w
		svcWeight += w
		if s.JobNS > 0 {
			agg.JobNS += s.JobNS
			jobWeight++
		}
	}
	if svcWeight > 0 {
		agg.ServiceNS /= svcWeight
	} else {
		agg.ServiceNS = 0
	}
	if jobWeight > 0 {
		agg.JobNS /= jobWeight
	}
	agg.IdleRatio /= float64(len(per))
	return agg
}

// Sampling cadence. Samples are uniform: every worker applies the same
// decimation (1 in serviceSampleEvery tasks is timed) and the same flush
// rule (fold accumulators into the EWMAs every flushEvents scheduling
// events, or after flushMaxAge once flushCheckMask events have passed),
// so no worker's signal is systematically fresher than another's.
const (
	serviceSampleEvery = 16
	flushEvents        = 256
	flushCheckMask     = 31
	flushMaxAge        = int64(5 * time.Millisecond)
	// DefaultAlpha is the plane's EWMA smoothing factor: heavy enough
	// that one noisy flush cannot flip a classification, light enough
	// that a real phase change propagates within a handful of flushes.
	DefaultAlpha = 0.3
)

// Sampler accumulates one worker's raw observations and periodically
// folds them into its Cell as EWMA-smoothed signals. All methods are
// owner-only (the worker's goroutine); the published Cell is the
// lock-free hand-off to readers.
type Sampler struct {
	cell *Cell
	base time.Time

	// Accumulators since the last flush.
	events  uint64 // scheduling events: completed tasks plus idle visits
	idle    uint64
	steals  uint64
	taskSeq uint64 // lifetime task counter, drives 1-in-N duration sampling
	doneSeq uint64 // lifetime completion counter, detects nested execution
	openSeq uint64 // doneSeq at the open sample's start
	smpNS   int64  // summed duration of sampled tasks
	smpN    uint64
	last    int64 // flush timestamp, ns since base

	serviceNS stats.EWMA
	taskRate  stats.EWMA
	stealRate stats.EWMA
	idleRatio stats.EWMA
}

// Init points the sampler at its publication cell and resets all state.
func (s *Sampler) Init(cell *Cell) {
	*s = Sampler{
		cell:      cell,
		base:      time.Now(),
		serviceNS: stats.NewEWMA(DefaultAlpha),
		taskRate:  stats.NewEWMA(DefaultAlpha),
		stealRate: stats.NewEWMA(DefaultAlpha),
		idleRatio: stats.NewEWMA(DefaultAlpha),
	}
}

func (s *Sampler) now() int64 { return int64(time.Since(s.base)) }

// TaskStart begins one task observation. It returns a start timestamp for
// the 1-in-serviceSampleEvery tasks whose duration is sampled and 0 for
// the rest, so the common path, inlined at the call site, costs one
// increment and a mask test; the clock is read out of line.
func (s *Sampler) TaskStart() int64 {
	if s.cell == nil {
		return 0
	}
	s.taskSeq++
	if s.taskSeq%serviceSampleEvery != 0 {
		return 0
	}
	return s.openSample()
}

// openSample is TaskStart's clock-reading part, kept out of line so that
// TaskStart itself inlines.
//
//go:noinline
func (s *Sampler) openSample() int64 {
	s.openSeq = s.doneSeq
	return s.now() | 1 // never 0, so 0 can mean "not sampled"
}

// TaskDone completes one task observation started with TaskStart. A
// sampled duration only counts when no other task completed on this
// worker in between: task execution nests (a task waiting in
// taskwait/taskgroup runs queued tasks inline), and an enclosing task's
// inclusive time describes its whole subtree, not the granularity class
// the balancing policies tune for. Dropping nested samples keeps the
// service-time signal a *leaf* task-size estimate.
func (s *Sampler) TaskDone(start int64) {
	s.events++
	s.doneSeq++
	if start != 0 || s.events&flushCheckMask == 0 {
		s.taskDoneSlow(start)
	}
}

// taskDoneSlow is TaskDone's clock-reading part: it closes a sampled
// duration and checks the flush cadence.
func (s *Sampler) taskDoneSlow(start int64) {
	if s.cell == nil {
		return
	}
	// doneSeq moved once since the sample opened: by this task alone.
	if start != 0 && s.doneSeq == s.openSeq+1 {
		if d := s.now() - start; d > 0 {
			s.smpNS += d
			s.smpN++
		}
	}
	if s.events&flushCheckMask == 0 {
		s.maybeFlush()
	}
}

// Idle records one idle scheduling-point visit (no task found).
func (s *Sampler) Idle() {
	if s.cell == nil {
		return
	}
	s.idle++
	s.events++
	if s.events&flushCheckMask == 0 {
		s.maybeFlush()
	}
}

// Steal records n steal requests sent by this worker as a thief.
func (s *Sampler) Steal(n uint64) {
	if s.cell != nil {
		s.steals += n
	}
}

// maybeFlush folds the accumulators into the EWMAs and publishes, on the
// uniform cadence described at the constants above. Its callers call it
// only every flushCheckMask+1 events; flushEvents is a multiple of that,
// so the count-based flush lands on one of those calls.
func (s *Sampler) maybeFlush() {
	if s.events < flushEvents && s.now()-s.last < flushMaxAge {
		return
	}
	s.Flush()
}

// Flush publishes immediately, regardless of cadence. Owner-only; useful
// at phase boundaries (end of a serve loop, before parking).
func (s *Sampler) Flush() {
	if s.cell == nil {
		return
	}
	now := s.now()
	elapsed := float64(now-s.last) / float64(time.Second)
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	if s.smpN > 0 {
		s.serviceNS.Update(float64(s.smpNS) / float64(s.smpN))
	}
	if s.events > 0 {
		s.idleRatio.Update(float64(s.idle) / float64(s.events))
	}
	s.taskRate.Update(float64(s.events-s.idle) / elapsed)
	s.stealRate.Update(float64(s.steals) / elapsed)

	idle := s.idleRatio.Value()
	s.cell.Publish(Signals{
		Running:   1 - idle,
		Capacity:  1,
		ServiceNS: s.serviceNS.Value(),
		TaskRate:  s.taskRate.Value(),
		StealRate: s.stealRate.Value(),
		IdleRatio: idle,
	})
	s.events, s.idle, s.steals = 0, 0, 0
	s.smpNS, s.smpN = 0, 0
	s.last = now
}
