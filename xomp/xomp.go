// Package xomp is the public API of this repository: a task-parallel
// runtime for Go reproducing "Optimizing Fine-Grained Parallelism Through
// Dynamic Load Balancing on Multi-Socket Many-Core Systems" (IPDPS 2025).
//
// The runtime executes OpenMP-style parallel regions over a fixed team of
// workers. Tasks are spawned with Worker.Spawn and joined with
// Worker.TaskWait; the region ends with an implicit team barrier. The
// composition of queueing substrate, barrier, allocator, and dynamic load
// balancer is chosen by Config, and Preset names the compositions the paper
// evaluates:
//
//	gomp          GNU OpenMP model: global task lock + GNU's task queue
//	              (every task at the default priority, so FIFO),
//	              centralized lock barrier, contended allocator.
//	lomp          LLVM OpenMP model: lock-free work-stealing deques,
//	              atomic centralized barrier, multi-level allocator.
//	xlomp         XQueue in the LOMP configuration.
//	xgomp         XQueue + atomic global task counter (paper §III-A).
//	xgomptb       XQueue + hybrid distributed tree barrier (§III-B).
//	xgomptb+narp  xgomptb + NUMA-aware redirect push (§IV-C).
//	xgomptb+naws  xgomptb + NUMA-aware work stealing (§IV-D).
//
// # Quick start
//
//	team := xomp.MustTeam(xomp.Preset("xgomptb", runtime.NumCPU()))
//	var fib func(w *xomp.Worker, n int) int
//	fib = func(w *xomp.Worker, n int) int {
//		if n < 2 {
//			return n
//		}
//		var a int
//		w.Spawn(func(w *xomp.Worker) { a = fib(w, n-1) })
//		b := fib(w, n-2)
//		w.TaskWait()
//		return a + b
//	}
//	var result int
//	team.Run(func(w *xomp.Worker) { result = fib(w, 30) })
//
// Team.Run is the OpenMP "parallel + single" idiom (worker 0 produces the
// root tasks). Teams are reusable across regions, and Team.Profile exposes
// the paper's per-thread profiling tools (§V).
//
// The closure above costs a heap object per task, plus the variables it
// captures. For fine-grained tasks, Worker.SpawnCall spawns a call task
// instead: a plain function with up to three argument words carried in the
// task frame and a result word in the spawner's frame, so a spawn
// allocates nothing:
//
//	func fibCall(w *xomp.Worker, t *xomp.Task) { t.Return(fib(w, t.Arg(0))) }
//
//	func fib(w *xomp.Worker, n uint64) uint64 {
//		if n < 2 {
//			return n
//		}
//		a := w.SpawnCall(fibCall, n-1, 0, 0) // *a is final after TaskWait
//		b := fib(w, n-2)
//		w.TaskWait()
//		return *a + b
//	}
//
// A frame holds nine result words, and they are not reused while its
// body runs, even across TaskWait. From the tenth call of one body on,
// each call's result is one 8-byte heap word; the call is still a
// deferred task. fib(n)'s body makes about n/2 calls, so only the few
// bodies near the root of a large fib pay it. A long loop of calls in one
// body pays it on every iteration past the ninth.
//
// # Serving concurrent jobs
//
// A Team executes one region at a time. To serve many independent jobs
// concurrently — submitted from any number of goroutines against
// persistent worker teams — use a pool, the job-server layer on top of the
// same substrate. There is one pool type, ShardedPool; a single serving
// team is its one-shard case, which MustPool builds:
//
//	pool := xomp.MustPool(xomp.Preset("xgomptb+naws", runtime.NumCPU()))
//	defer pool.Close()
//	job, err := pool.Submit(func(w *xomp.Worker) {
//		// spawn and join tasks exactly as in a region body
//	})
//	if err != nil {
//		// pool closed (xomp.ErrClosed) — or never started
//	}
//	if err := job.Wait(); err != nil {
//		// a task of this job panicked: err is a *xomp.PanicError
//	}
//
// Each job has its own quiescence detection and panic capture, so jobs are
// isolated from each other while their tasks share queues, allocator, and
// dynamic load balancing. The team's load signals and profile are
// pool.Team(0)'s.
//
// Admission is itself policy-driven: ShardedPool.SubmitCtx submits under an
// admission contract — a priority class (interactive/batch/background,
// each with its own bounded queue, adopted in strict class order) and an
// optional deadline — and Config.Admit selects what a full backlog
// means: wait (BlockWhenFull, the default), fail fast (RejectWhenFull →
// ErrBacklogFull), or deadline-aware load shedding under saturation
// (DeadlineShed → ErrShed). A waiting submitter unblocks promptly on
// context cancellation or deadline expiry instead of blocking forever.
//
// To scale the job server across NUMA domains, a ShardedPool of several
// shards runs one serving team per domain behind a two-level dynamic load
// balancer: jobs are placed on the less loaded of two random shards and a
// second-level balancer moves queued jobs that wait behind busy workers
// to a shard with an idle one. See ShardedPool and ShardConfig.
package xomp

import (
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/numa"
	"repro/internal/prof"
)

// Worker is a team member; task bodies receive the worker executing them
// and use it to spawn children and wait for them. See core.Worker.
type Worker = core.Worker

// TaskFunc is a task body.
type TaskFunc = core.TaskFunc

// CallFunc is the body of a call task (Worker.SpawnCall): a plain function
// rather than a closure, so spawning one allocates nothing while the
// spawner's frame has a free result slot.
type CallFunc = core.CallFunc

// Task is a task's frame. A call task's body reads its arguments from it
// with Arg and hands back its result with Return.
type Task = core.Task

// Team is a fixed set of workers executing parallel regions.
type Team = core.Team

// Config assembles a runtime; see the field docs in package core.
type Config = core.Config

// DLBConfig carries the dynamic-load-balancing tunables Nvictim, Nsteal,
// Tinterval and Plocal from §IV-E of the paper.
type DLBConfig = core.DLBConfig

// Substrate selectors; see the constants below.
type (
	// Sched selects the task-queue substrate.
	Sched = core.Sched
	// Barrier selects the team-barrier implementation.
	Barrier = core.Barrier
	// Alloc selects the task-descriptor allocation model.
	Alloc = core.Alloc
	// DLBStrategy selects the dynamic load balancing strategy.
	DLBStrategy = core.DLBStrategy
)

// Scheduler substrates.
const (
	SchedGOMP   = core.SchedGOMP
	SchedLOMP   = core.SchedLOMP
	SchedXQueue = core.SchedXQueue
)

// Barrier implementations.
const (
	BarrierCentralLock   = core.BarrierCentralLock
	BarrierCentralAtomic = core.BarrierCentralAtomic
	BarrierTree          = core.BarrierTree
)

// Allocation models.
const (
	AllocContended  = core.AllocContended
	AllocMultiLevel = core.AllocMultiLevel
)

// DLB strategies.
const (
	DLBNone         = core.DLBNone
	DLBRedirectPush = core.DLBRedirectPush
	DLBWorkSteal    = core.DLBWorkSteal
)

// NewTeam validates cfg and assembles the runtime it describes.
func NewTeam(cfg Config) (*Team, error) { return core.NewTeam(cfg) }

// MustTeam is NewTeam, panicking on configuration errors.
func MustTeam(cfg Config) *Team { return core.MustTeam(cfg) }

// Preset returns the configuration of one of the paper's named runtimes
// for the given team size; see the package comment for the names.
func Preset(name string, workers int) Config { return core.Preset(name, workers) }

// PresetNames lists the preset names in the order the paper introduces
// them.
func PresetNames() []string { return core.PresetNames() }

// DefaultDLB returns mid-range DLB settings for the given strategy, the
// starting point of the paper's parameter sweeps.
func DefaultDLB(s DLBStrategy) DLBConfig { return core.DefaultDLB(s) }

// Admission errors of SubmitCtx: a full class queue under a non-blocking
// policy, a submission deadline expired before admission, a policy-shed
// submission, a pool that is not serving, and the ErrInvalid family for
// malformed submissions (ErrNilFunc wraps ErrInvalid, as do the
// class-range and tenant-weight errors). Cancelled contexts surface as
// ctx.Err().
var (
	ErrBacklogFull      = core.ErrBacklogFull
	ErrShed             = core.ErrShed
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	ErrNotServing       = core.ErrNotServing
	ErrInvalid          = core.ErrInvalid
	ErrNilFunc          = core.ErrNilFunc
)

// SubmitOpts qualifies one SubmitCtx submission: a priority class, an
// optional absolute completion deadline, and the submitting tenant. See
// ShardedPool.SubmitCtx.
type SubmitOpts = core.SubmitOpts

// BatchItem is one submission of a batch (ShardedPool.SubmitBatchCtx): a
// task body plus its SubmitOpts.
type BatchItem = core.BatchItem

// BatchResult is one batch item's outcome: the admitted Job, or the
// typed error the item's individual SubmitCtx would have returned.
type BatchResult = core.BatchResult

// Tenant identifies the principal behind a submission (id + fair-share
// weight). The zero value is tenant 0 at weight 1. Set it on
// SubmitOpts.Tenant to key per-tenant admission accounting and to let
// weighted-fair admission (WFQAdmit) bound each tenant's share of the
// service.
type Tenant = load.Tenant

// Class is a submission's admission priority class. Each serving team
// keeps one bounded admission queue per class and adopts strictly in
// class order, so a background flood cannot head-of-line-block
// interactive jobs.
type Class = load.Class

// Admission priority classes. ClassBatch is the zero value (what an
// unfilled SubmitOpts gets); adoption precedence is interactive, batch,
// background.
const (
	ClassInteractive = load.ClassInteractive
	ClassBatch       = load.ClassBatch
	ClassBackground  = load.ClassBackground
	NumClasses       = load.NumClasses
)

// ParseClass maps a class name ("interactive", "batch", "background")
// back to its Class, the inverse of Class.String.
func ParseClass(name string) (Class, bool) { return load.ParseClass(name) }

// AdmitPolicy decides what one submission meets at the admission edge:
// waiting for space, rejection on a full class queue, or deadline-aware
// shedding. Assign an implementation to Config.Admit.
type AdmitPolicy = load.AdmitPolicy

// Built-in admission policies.
type (
	// BlockWhenFull always waits for queue space (the default: plain
	// backpressure, cancellable via SubmitCtx).
	BlockWhenFull = load.BlockWhenFull
	// RejectWhenFull returns ErrBacklogFull instead of blocking.
	RejectWhenFull = load.RejectWhenFull
	// DeadlineShed sheds submissions whose deadline cannot be met while
	// the team is saturated, and rejects instead of blocking.
	DeadlineShed = load.DeadlineShed
	// WFQAdmit is weighted-fair multi-tenant admission: per-tenant
	// virtual-time accounting bounds any single tenant's share of a
	// class queue, so a noisy neighbor is shed at the door while
	// everyone else keeps blocking-admission semantics. Stateful — share
	// one instance (a pointer) across the teams it should see as one
	// fairness domain, e.g. via ShardConfig.Team.Admit.
	WFQAdmit = load.WFQAdmit
)

// Signals is one serving team's (shard's) load picture: queued and
// running jobs, capacity, and the smoothed job run time; see
// Team.Signals.
type Signals = load.Signals

// JobRecord is one completed job's per-job profiling record (submission,
// adoption, and completion times; adopting worker; panic and migration
// flags), retained in a bounded ring on the serving team's profile. Read
// them per shard with ShardedPool.Team(s).Profile().Jobs().
type JobRecord = prof.JobRecord

// GuidelineFor maps a mean task duration to the DLB settings the paper's
// Table IV recommends for that granularity class.
func GuidelineFor(meanTask time.Duration, zones int) DLBConfig {
	return core.GuidelineFor(meanTask, zones)
}

// Topology maps workers onto NUMA zones; assign one to Config.Topology to
// override detection.
type Topology = numa.Topology

// SyntheticTopology distributes workers over zones in contiguous blocks
// (close affinity), the layout the paper's experiments use.
func SyntheticTopology(workers, zones int) Topology {
	return numa.Synthetic(workers, zones)
}

// DetectTopology returns the host topology when detectable (Linux sysfs)
// and a single-zone layout otherwise.
func DetectTopology(workers int) Topology {
	return numa.Detect(workers)
}
