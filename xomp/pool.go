// The job-server layer's handles and its single-team constructor. Where
// Team.Run executes one parallel region at a time, a pool keeps persistent
// serving teams running and lets any number of client goroutines submit
// independent jobs against them concurrently. There is one pool type,
// ShardedPool; a single serving team is its one-shard case, which NewPool
// builds.
package xomp

import "repro/internal/core"

// Job is the handle returned by ShardedPool.Submit: Wait blocks until the
// job's whole task subtree has completed and reports a *PanicError if any
// of the job's task bodies panicked. Completion is one atomic word on the
// job's frame: register for it with Wait or Done (any number of waiters)
// or with Subscribe or SubscribeTo (one receiver, which then owns the
// handle), never both, and Release the frame only once every Wait has
// returned and every Done channel has been seen closed. See core.Job for
// the full API (Err, QueueDelay, RunTime, ...). The job's stamps —
// QueueDelay, RunTime, Worker, Tag and Migrated — are valid after
// completion: once Wait has returned or the job was delivered. Call
// SetTag before the Wait or Subscribe that hands completion over.
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

// ErrClosed is returned by ShardedPool.Submit once Close has begun.
var ErrClosed = core.ErrClosed

// NewPool builds the one-shard pool of a single serving team configured
// by cfg: ShardConfig{Shards: 1, Team: cfg}. The team uses cfg.Topology,
// or the detected host topology when it is unset. Its load signals,
// profile, policy trace and active-worker lever are those of Team(0).
//
//	pool := xomp.MustPool(xomp.Preset("xgomptb+naws", runtime.NumCPU()))
//	defer pool.Close()
//	job, err := pool.Submit(func(w *xomp.Worker) {
//		w.Spawn(...)   // fan out like any region body
//		w.TaskWait()
//	})
//	if err != nil { ... }
//	if err := job.Wait(); err != nil { ... } // *xomp.PanicError on task panic
func NewPool(cfg Config) (*ShardedPool, error) {
	return NewShardedPool(ShardConfig{Shards: 1, Team: cfg})
}

// MustPool is NewPool, panicking on configuration errors.
func MustPool(cfg Config) *ShardedPool {
	return MustShardedPool(ShardConfig{Shards: 1, Team: cfg})
}
