// Pool: the job-server layer. Where Team.Run executes one parallel region
// at a time, a Pool keeps one persistent worker team running and lets any
// number of client goroutines submit independent jobs against it
// concurrently — the shape a runtime serving heavy traffic needs. Every
// job's task tree shares the same lock-less substrate, barrier-free per-job
// quiescence detection, and dynamic load balancer as classic regions.
package xomp

import (
	"context"

	"repro/internal/core"
)

// Job is the handle returned by Pool.Submit: Wait blocks until the job's
// whole task subtree has completed and reports a *PanicError if any of the
// job's task bodies panicked. Completion is one atomic word on the job's
// frame: register for it with Wait or Done (any number of waiters) or with
// Subscribe or SubscribeTo (one receiver, which then owns the handle),
// never both, and Release the frame only once every Wait has returned and
// every Done channel has been seen closed. See core.Job for the full API
// (Err, QueueDelay, RunTime, ...).
type Job = core.Job

// Outbox is the receiver's end of Job.SubscribeTo: finished jobs chain
// themselves into it and one goroutine takes them a drain at a time. See
// core.Outbox.
type Outbox = core.Outbox

// NewOutbox returns an empty Outbox.
func NewOutbox() *Outbox { return core.NewOutbox() }

// ReleaseJobs releases every job of jobs — finished handles the caller
// owns, typically one Outbox.Take — in runs that pay the frame pool's lock
// once per batch rather than once per job. jobs is scratch afterwards.
func ReleaseJobs(jobs []*Job) { core.ReleaseJobs(jobs) }

// PanicError is the error Job.Wait returns for a job that panicked; its
// Value field carries the recovered panic value.
type PanicError = core.PanicError

// ErrClosed is returned by Pool.Submit once Close has begun.
var ErrClosed = core.ErrClosed

// Pool is a shared task service: a persistent team of workers executing
// jobs submitted concurrently from many goroutines.
//
//	pool := xomp.MustPool(xomp.Preset("xgomptb+naws", runtime.NumCPU()))
//	defer pool.Close()
//	job, err := pool.Submit(func(w *xomp.Worker) {
//		w.Spawn(...)   // fan out like any region body
//		w.TaskWait()
//	})
//	if err != nil { ... }
//	if err := job.Wait(); err != nil { ... } // *xomp.PanicError on task panic
//
// Submissions beyond Config.Backlog block until a worker adopts a queued
// job (backpressure). Jobs are isolated from each other: each has its own
// quiescence detection and panic capture, so one panicking job neither
// poisons the team nor disturbs other jobs in flight. Per-job profiling
// records (queue delay, run time, adopting worker) accumulate on the
// team's profile in a bounded ring; see Team().Profile().Jobs().
//
// Config.Profile (the per-task event timeline) is meant for bounded
// experiments: it records every task and is not size-bounded, so leave it
// off for a long-lived pool under continuous traffic.
type Pool struct {
	tm *Team
}

// NewPool validates cfg, assembles the runtime it describes, and starts
// serving.
func NewPool(cfg Config) (*Pool, error) {
	tm, err := core.NewTeam(cfg)
	if err != nil {
		return nil, err
	}
	if err := tm.Serve(); err != nil {
		return nil, err
	}
	return &Pool{tm: tm}, nil
}

// MustPool is NewPool, panicking on configuration errors.
func MustPool(cfg Config) *Pool {
	p, err := NewPool(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Submit enqueues fn as a new job's root task and returns its handle.
// Under the default admission policy it blocks while the admission queue
// is full; a non-blocking Config.Admit (RejectWhenFull, DeadlineShed)
// applies to plain Submit too and returns ErrBacklogFull instead. It
// returns ErrClosed after Close. Submit must be called from outside the
// pool's task bodies; inside a task, spawn children with Worker.Spawn
// instead.
func (p *Pool) Submit(fn TaskFunc) (*Job, error) { return p.tm.Submit(fn) }

// SubmitCtx enqueues fn under an admission contract: opts selects the
// submission's priority class (per-class bounded queues, adopted in
// strict class order) and an optional completion deadline, the pool's
// admission policy (Config.Admit) decides what a full backlog means, and
// a blocked wait unblocks promptly when ctx is cancelled or the deadline
// arrives. Typed errors: ctx.Err() on cancellation, ErrDeadlineExceeded,
// ErrBacklogFull, ErrShed, ErrClosed. See Team.SubmitCtx.
func (p *Pool) SubmitCtx(ctx context.Context, fn TaskFunc, opts SubmitOpts) (*Job, error) {
	return p.tm.SubmitCtx(ctx, fn, opts)
}

// SubmitBatch admits every fn as a new job of the neutral batch class in
// one amortized admission pass — one accounting section, grouped gauge
// traffic, and a single reserving enqueue per class — and returns one
// index-aligned BatchResult per fn. See Team.SubmitBatchCtx for the full
// contract.
func (p *Pool) SubmitBatch(fns []TaskFunc) ([]BatchResult, error) { return p.tm.SubmitBatch(fns) }

// SubmitBatchCtx admits a batch of jobs, each item under its own
// admission contract (class, deadline, tenant), in one amortized pass.
// Partial admission is the normal outcome under backpressure: each
// item's BatchResult carries either its Job or the same typed error
// SubmitCtx would have returned for it. See Team.SubmitBatchCtx.
func (p *Pool) SubmitBatchCtx(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	return p.tm.SubmitBatchCtx(ctx, items)
}

// Close stops admission, waits for all submitted jobs to complete, and
// stops the workers. Repeated Close calls are safe and return nil. The
// underlying team remains valid and may be reused (for regions or a new
// Serve) afterwards. Like Submit, Close must be called from outside the
// pool's task bodies: it waits for every job, including the caller's own,
// so a task calling Close deadlocks.
func (p *Pool) Close() error { return p.tm.Close() }

// Workers returns the pool's maximum worker capacity.
func (p *Pool) Workers() int { return p.tm.Workers() }

// ActiveWorkers returns how many of the pool's workers are currently
// active (unparked); see SetActive.
func (p *Pool) ActiveWorkers() int { return p.tm.ActiveWorkers() }

// SetActive resizes the pool's active worker set to n of its Workers()
// capacity: shrinking parks the trailing workers (their queued tasks are
// handed off first, never stranded), growing unparks them. It is the
// capacity lever an external controller uses to take resources from a
// cold pool and give them to a hot one.
func (p *Pool) SetActive(n int) error { return p.tm.SetActive(n) }

// QueueDepth returns the number of jobs submitted but not yet adopted by
// a worker (including submitters currently blocked on a full admission
// queue) — the pool's instantaneous backlog, the same load signal a
// ShardedPool compares across shards.
func (p *Pool) QueueDepth() int64 { return p.tm.QueueDepth() }

// ActiveJobs returns the number of jobs submitted and not yet completed,
// queued and running alike.
func (p *Pool) ActiveJobs() int64 { return p.tm.ActiveJobs() }

// Signals returns the pool's current load signals (queue depth, running
// jobs, active workers, and the worker plane's smoothed task
// measurements) — the same uniform surface a ShardedPool's balancing
// policies consume per shard.
func (p *Pool) Signals() Signals { return p.tm.Signals() }

// PolicyTrace returns the adaptive policy controller's recorded
// configuration switches (empty unless Config.Policy.Name was
// "adaptive").
func (p *Pool) PolicyTrace() []PolicySwitch { return p.tm.PolicyTrace() }

// Team returns the underlying team, e.g. for Profile() access. Do not call
// Run/Parallel on it while the pool is open.
func (p *Pool) Team() *Team { return p.tm }
