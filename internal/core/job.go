package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/load"
)

// Job is the handle to one unit of work submitted to a serving Team (see
// Team.Serve and Team.Submit). A job is an independent root task plus every
// task it transitively spawns; many jobs coexist on one team, interleaved
// task-by-task across the shared XQueue/LOMP/GOMP substrate.
//
// Unlike a parallel region, which detects termination with the team-wide
// barrier and task counters, a job carries its own quiescence detection:
// the root task's reference count covers the job's whole task subtree
// (children decrement their parent only when their own subtree completes),
// so the job is done exactly when the root's count reaches zero — no
// barrier, and no coordination with other jobs in flight.
//
// Panics are captured per job: a panicking task body fails its job, cancels
// the job's remaining task bodies, and surfaces the panic value from Wait
// as a *PanicError. Other jobs and the team itself are unaffected.
//
// Job frames are recycled: the submit path draws them from the team's
// multi-level frame pool, and a caller that is done with a handle may
// return it with Release so steady-state submission allocates nothing.
// Release is optional — an unreleased frame is ordinary garbage.
type Job struct {
	id   int64
	root Task

	// Completion state. state flips once, inFlight → done; wake is a
	// one-token channel allocated once per frame lifetime: finishJob
	// deposits the token, each Wait takes it and puts it back (so any
	// number of waiters drain through), and reset reclaims it. doneCh
	// backs the public Done() channel and is allocated lazily — jobs
	// whose callers only Wait (the common case) never pay for it.
	state  atomic.Uint32
	wake   chan struct{}
	doneMu sync.Mutex
	doneCh chan struct{}

	// class is the job's admission priority class (SubmitOpts.Priority),
	// fixed at submission: it selects the admission queue, survives
	// migration (the job re-enters the destination team's same-class
	// queue), and is recorded on the JobRecord.
	class load.Class

	// tenant is the submitting tenant (SubmitOpts.Tenant), fixed at
	// submission like class: it keys the per-tenant gauges and counters
	// along the job's whole path (admission, adoption, migration,
	// completion) and is recorded on the JobRecord.
	tenant load.Tenant

	// failed is raised by the first panicking task; later tasks of this
	// job skip their bodies (cancellation) but keep completion accounting,
	// so the job still quiesces.
	failed     atomic.Bool
	panicMu    sync.Mutex
	panicVal   any
	panicStack []byte

	// migrated is set when a second-level balancer moved this job, while
	// still queued, from the team it was submitted to onto another team
	// (see MigrateQueuedJob).
	migrated atomic.Bool

	// tag is an opaque caller-set value carried through the job's
	// lifetime (the network edge stores the connection-relative wire
	// sequence number here); notify/notified implement Subscribe's
	// exactly-once completion hand-off.
	tag      atomic.Uint64
	notify   atomic.Value // chan *Job
	notified atomic.Bool

	// released guards double-Release; home/lane identify the frame pool
	// (the submitting team's, even after a migration) and the pool lane
	// the frame came from.
	released atomic.Bool
	home     *Team
	lane     int

	// Profiling fields: the adopting worker and nanosecond timestamps on
	// the executing team profile's clock. worker/startNS are written by
	// the adopter before the root runs; endNS by the completing worker;
	// submitNS by Submit before the job is published, and rebased onto the
	// destination team's clock when the job migrates. The atomic wrapper
	// types guarantee the alignment 64-bit atomics need on 32-bit
	// platforms (and make the migration rebase race-free against readers).
	worker   atomic.Int32
	submitNS atomic.Int64
	startNS  atomic.Int64
	endNS    atomic.Int64
}

// Job completion states.
const (
	jobInFlight uint32 = iota
	jobDone
)

// PanicError is the error Job.Wait returns when one of the job's task
// bodies panicked; Value is the recovered panic value of the first panic
// and Stack the goroutine stack captured at its recovery point, locating
// the faulty task body (the panic is recovered per task, so the process
// stack region mode would have left behind does not exist here).
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("core: job task panicked: %v", e.Value) }

// ID returns the job's submission sequence number on its team (1-based).
func (j *Job) ID() int64 { return j.id }

// Done returns a channel closed when the job's task subtree has quiesced.
// The channel is created on first call; callers that only Wait never
// allocate it.
func (j *Job) Done() <-chan struct{} {
	j.doneMu.Lock()
	defer j.doneMu.Unlock()
	if j.doneCh == nil {
		j.doneCh = make(chan struct{})
		if j.state.Load() == jobDone {
			close(j.doneCh)
		}
	}
	return j.doneCh
}

// Wait blocks until every task of the job has completed. It returns nil on
// success and a *PanicError when any of the job's task bodies panicked.
func (j *Job) Wait() error {
	if j.state.Load() != jobDone {
		<-j.wake
		j.wake <- struct{}{} // pass the completion token to the next waiter
	}
	return j.Err()
}

// Err returns the job's failure, or nil if the job succeeded or is still
// in flight.
func (j *Job) Err() error {
	if j.state.Load() != jobDone {
		return nil
	}
	j.panicMu.Lock()
	r, stack := j.panicVal, j.panicStack
	j.panicMu.Unlock()
	if r != nil {
		return &PanicError{Value: r, Stack: stack}
	}
	return nil
}

// Release returns the job's frame to its team's pool for reuse, making
// steady-state submission allocation-free. It is a no-op while the job is
// still in flight, on a second call, and on a nil job — but never call it
// while another goroutine may still use this handle (a concurrent Wait,
// Err, or Done): Release transfers ownership of the frame exactly like
// freeing it, and the next Submit may hand the same frame to an unrelated
// caller. Releasing is optional; an unreleased handle is simply garbage
// collected.
func (j *Job) Release() {
	if j == nil || j.state.Load() != jobDone {
		return
	}
	if j.released.Swap(true) {
		return
	}
	// finish stores jobDone before it deposits the wake token, so a caller
	// that saw jobDone on Wait's fast path can get here while finish is
	// still inside its critical section. Passing through doneMu orders the
	// recycle after that whole section; otherwise the late token lands in
	// the frame's next generation and that generation's finish blocks on
	// the full channel forever.
	j.doneMu.Lock()
	j.doneMu.Unlock()
	if j.home != nil {
		j.home.releaseJob(j)
	}
}

// finish publishes completion: records state, closes a Done channel if
// one was materialized, deposits the wake token (unless a subscriber
// claimed delivery), and delivers the Subscribe notification. The caller
// must not touch the job afterwards — a released frame may be reused the
// moment the token lands (or, for a subscribed job, the moment the
// receiver takes the handle).
//
// Completion publication and the hand-off resolution are one atomic step
// under doneMu: the moment another goroutine can observe jobDone it can
// reach Release — a waiter through the wake token, a subscriber through
// Subscribe's inline-delivery path — and the frame may be recycled for
// an unrelated submission, so every touch finish makes on the frame must
// be ordered before that observation. Subscribe runs entirely under the
// same lock, which forces its inline delivery to wait until finish has
// released it, by which point finish's only remaining touch is the
// delivery send it claimed for itself (and a finish that claimed
// delivery skips the wake token, so no waiter can race the send either —
// a subscribed job's receiver owns completion, see Subscribe).
func (j *Job) finish() {
	j.doneMu.Lock()
	j.state.Store(jobDone)
	if j.doneCh != nil {
		close(j.doneCh)
	}
	ch, _ := j.notify.Load().(chan *Job)
	deliver := ch != nil && j.notified.CompareAndSwap(false, true)
	if !deliver {
		j.wake <- struct{}{} // no subscriber claimed: wake the Wait-ers
	}
	j.doneMu.Unlock()
	if deliver {
		ch <- j
	}
}

// Subscribe registers ch to receive the job's handle exactly once when
// it completes — the channel-driven alternative to Wait for callers
// multiplexing many jobs onto one receiver (the network edge's writer
// goroutine). It may be called before or after completion: a job that is
// already done is delivered from Subscribe itself, otherwise the
// completing worker delivers it, and the CAS between the two sides makes
// the hand-off exactly-once under any interleaving.
//
// Contract: the receiver owns completion for a subscribed job. No other
// goroutine may Wait, Err, or Release the handle, and ch must have
// capacity for every subscribed job in flight — the delivery send is the
// completing worker's last action, and a full channel would stall it.
// One channel may serve any number of jobs; at most one Subscribe per
// job generation.
func (j *Job) Subscribe(ch chan *Job) {
	// The whole registration runs under doneMu, the same lock finish
	// publishes completion under, so the two sides serialize cleanly:
	// either this critical section completes first — finish then sees
	// the stored channel, claims delivery, and sends after Subscribe has
	// no touches left — or finish's completes first, in which case it
	// saw no subscriber, deposited the wake token, and is done with the
	// frame entirely before the inline claim below can hand it to the
	// receiver. Without the lock, either side could still be touching
	// the frame (finish: the wake deposit; Subscribe: these loads) after
	// the other delivered it, and the receiver's Release would let the
	// frame recycle under those touches, corrupting the next generation.
	j.doneMu.Lock()
	if j.state.Load() != jobDone {
		j.notify.Store(ch) // in flight: finish delivers
		j.doneMu.Unlock()
		return
	}
	deliver := j.notified.CompareAndSwap(false, true)
	j.doneMu.Unlock()
	if deliver {
		ch <- j
	}
}

// SetTag attaches an opaque caller value to the job for the rest of its
// generation; Tag reads it back. The network edge keys result records by
// it. Reset on frame recycling like every other per-submission field.
func (j *Job) SetTag(v uint64) { j.tag.Store(v) }

// Tag returns the value set by SetTag (0 if never set).
func (j *Job) Tag() uint64 { return j.tag.Load() }

// resetForSubmit re-initializes a (possibly recycled) frame for one
// submission. The frame pool hands frames to one submitter at a time, so
// no other goroutine can observe the reset.
func (j *Job) resetForSubmit(tm *Team, lane int, id int64, fn TaskFunc, class load.Class, tenant load.Tenant) {
	if j.wake == nil {
		j.wake = make(chan struct{}, 1)
	}
	select { // reclaim the completion token of the previous generation
	case <-j.wake:
	default:
	}
	j.id = id
	j.class = class
	j.tenant = tenant
	j.state.Store(jobInFlight)
	j.released.Store(false)
	j.doneMu.Lock()
	j.doneCh = nil
	j.doneMu.Unlock()
	j.failed.Store(false)
	j.panicMu.Lock()
	j.panicVal, j.panicStack = nil, nil
	j.panicMu.Unlock()
	j.migrated.Store(false)
	j.tag.Store(0)
	j.notified.Store(false)
	j.notify.Store((chan *Job)(nil))
	j.home = tm
	j.lane = lane
	j.worker.Store(-1)
	j.submitNS.Store(0)
	j.startNS.Store(0)
	j.endNS.Store(0)
	j.root.reset(fn, nil, 0, 0)
	j.root.noRecycle = true // the root outlives the region; never task-pool it
	j.root.job = j
}

// Worker returns the worker that adopted the job's root task, or -1 while
// the job is still queued. After a migration the id refers to a worker of
// the team the job migrated to.
func (j *Job) Worker() int { return int(j.worker.Load()) }

// Migrated reports whether a second-level balancer moved this job off the
// team it was submitted to while it was still queued (see MigrateQueuedJob).
func (j *Job) Migrated() bool { return j.migrated.Load() }

// Class returns the job's admission priority class.
func (j *Job) Class() load.Class { return j.class }

// Tenant returns the submitting tenant (zero value for single-tenant
// callers).
func (j *Job) Tenant() load.Tenant { return j.tenant }

// QueueDelay returns how long the job waited in the admission queue before
// a worker adopted it. Valid once the job has started.
func (j *Job) QueueDelay() time.Duration {
	return time.Duration(j.startNS.Load() - j.submitNS.Load())
}

// RunTime returns the time from adoption to quiescence. Valid after Wait.
func (j *Job) RunTime() time.Duration {
	return time.Duration(j.endNS.Load() - j.startNS.Load())
}

// recordPanic captures the first panic value and its stack and fails the
// job, cancelling its remaining task bodies.
func (j *Job) recordPanic(r any, stack []byte) {
	j.panicMu.Lock()
	if j.panicVal == nil {
		j.panicVal = r
		j.panicStack = stack
	}
	j.panicMu.Unlock()
	j.failed.Store(true)
}
