package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/load"
	"repro/internal/prof"
)

// Job is the handle to one unit of work submitted to a serving Team (see
// Team.Serve and Team.Submit). A job is an independent root task plus every
// task it transitively spawns; many jobs coexist on one team, interleaved
// task-by-task across the shared XQueue/LOMP/GOMP substrate.
//
// Unlike a parallel region, which detects termination with the team-wide
// barrier and task counters, a job carries its own quiescence detection:
// the root task's join count covers the job's whole task subtree
// (children count as done in their parent only when their own subtree
// completes), so the job is done exactly when the root's count closes — no
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
	id int64

	// word is the whole completion protocol: generation<<phaseBits | phase,
	// every transition one CAS or Swap (see the phase constants). wake is a
	// one-token channel allocated once per frame lifetime and used only in
	// phase waiting: finish deposits the token, each Wait takes it and puts
	// it back (so any number of waiters drain through), and reset reclaims
	// it. sink is where a subscribed job is delivered, a plain field
	// published by the CAS to phase subscribed; next links the job into its
	// sink's Outbox chain from delivery to Take.
	word atomic.Uint64
	wake chan struct{}
	sink sink
	next *Job

	// class is the job's admission priority class (SubmitOpts.Priority),
	// fixed at submission: it selects the admission queue, survives
	// migration (the job re-enters the destination team's same-class
	// queue), and is recorded on the JobRecord.
	class load.Class

	// tenant is the submitting tenant (SubmitOpts.Tenant), fixed at
	// submission like class: it keys the per-tenant gauges and counters
	// along the job's whole path (admission, adoption, migration,
	// completion) and is recorded on the JobRecord. ten is its ledger
	// slot on the profile of the team whose queue holds the job, resolved
	// once per same-tenant run at admission and again on a migration's
	// destination, so adoption and completion skip the lookup.
	tenant load.Tenant
	ten    prof.TenantRef

	// fail is the outcome: nil until the first panicking task publishes
	// its PanicError (first CAS wins). Later tasks of a failed job skip
	// their bodies (cancellation) but keep completion accounting, so the
	// job still quiesces.
	fail atomic.Pointer[PanicError]

	// home/lane identify the frame pool (the submitting team's, even
	// after a migration) and the pool lane the frame came from.
	home *Team
	lane int

	// The stamps: the caller's tag (the network edge stores the
	// connection-relative wire sequence number here), whether a
	// second-level balancer moved the job while it was queued
	// (MigrateQueuedJob), the adopting worker, and nanosecond times on
	// the executing team profile's clock. They are plain fields: each has
	// one writer at a time, and each reader sits behind a happens-before
	// edge of the job's own protocol (ARCHITECTURE.md, "What one job
	// costs", names the edge per field). The submitter writes submitNS
	// and resets tag and migrated before the intake ring publishes the
	// job; the migrator, which owns the job from its dequeue to its
	// re-enqueue, sets migrated and rebases submitNS onto the destination
	// team's clock; the adopter writes worker and startNS before the root
	// runs; the completing worker writes endNS before finish's Swap. The
	// caller's SetTag precedes its Subscribe or Wait. The accessors are
	// therefore valid once the job has completed.
	tag      uint64
	migrated bool
	worker   int32
	submitNS int64
	startNS  int64
	endNS    int64

	// root is the job's root task. It comes last so that the root's call
	// block (argument and result words), which a submission never touches,
	// trails everything resetForSubmit writes.
	root Task
}

// Phases of Job.word: pooled → inFlight → {waiting | subscribed} → done →
// pooled. pooled is the zero value, so fresh and recycled frames look the
// same to resetForSubmit; waiting and subscribed are inFlight with a party
// registered for completion, which pins the frame past finish's Swap
// (ARCHITECTURE.md has the who-may-touch-what table).
const (
	jobPooled uint64 = iota
	jobInFlight
	jobWaiting
	jobSubscribed
	jobDone

	phaseBits = 3
	phaseMask = 1<<phaseBits - 1
)

// closedChan is what Done returns for a job that has already finished.
var closedChan = make(chan struct{})

func init() { close(closedChan) }

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

// done reports whether this generation of the job has finished.
func (j *Job) done() bool { return j.word.Load()&phaseMask == jobDone }

// enterWait registers the caller as a waiter (inFlight → waiting, or
// joining waiters already registered) and reports whether it must park;
// false means the job is already done.
func (j *Job) enterWait() bool {
	for {
		w := j.word.Load()
		switch w & phaseMask {
		case jobDone:
			return false
		case jobWaiting:
			return true
		case jobInFlight:
			if j.word.CompareAndSwap(w, w&^phaseMask|jobWaiting) {
				return true
			}
		default:
			panic("core: Wait or Done on a released or subscribed job")
		}
	}
}

// park blocks a registered waiter until finish deposits the wake token,
// then passes the token to the next waiter.
func (j *Job) park() {
	<-j.wake
	j.wake <- struct{}{}
}

// Done returns a channel closed when the job's task subtree has quiesced.
// A finished job returns a shared closed channel; an unfinished one
// registers the caller as a waiter and parks a goroutine that closes a
// fresh channel, so a Done channel not yet closed is a concurrent Wait.
func (j *Job) Done() <-chan struct{} {
	if !j.enterWait() {
		return closedChan
	}
	ch := make(chan struct{})
	go func() {
		j.park()
		close(ch)
	}()
	return ch
}

// Wait blocks until every task of the job has completed. It returns nil on
// success and a *PanicError when any of the job's task bodies panicked.
func (j *Job) Wait() error {
	if j.enterWait() {
		j.park()
	}
	return j.Err()
}

// Err returns the job's failure, or nil if the job succeeded or is still
// in flight.
func (j *Job) Err() error {
	if !j.done() {
		return nil
	}
	if p := j.fail.Load(); p != nil {
		return p
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
	if j != nil {
		j.recycle(jobDone)
	}
}

// ReleaseJobs is Release over a receiver's whole drain: every job of jobs,
// each a finished handle the caller owns, goes back to its team's pool, one
// lane lock per run of frames that share a pool lane (the frames of one
// batch do) instead of one per frame. jobs is scratch: its order is not
// preserved.
func ReleaseJobs(jobs []*Job) {
	for len(jobs) > 0 {
		home, lane := jobs[0].home, jobs[0].lane
		run, retired := 0, 0
		for ; run < len(jobs) && jobs[run].home == home && jobs[run].lane == lane; run++ {
			if jobs[run].retire(jobDone) {
				jobs[retired] = jobs[run]
				retired++
			}
		}
		home.jobPool.PutSharedRun(lane, jobs[:retired])
		jobs = jobs[run:]
	}
}

// recycle returns the frame to its pool if it is in phase from.
func (j *Job) recycle(from uint64) {
	if j.retire(from) {
		j.home.jobPool.PutShared(j.lane, j)
	}
}

// retire is the only way into phase pooled, and its true return the only
// licence to put the frame in the pool: one CAS from → pooled, which the
// loser of two Releases fails. Reference fields are cleared so a pooled
// frame pins neither the task body, a captured panic, a subscriber's sink,
// nor an Outbox chain-mate.
func (j *Job) retire(from uint64) bool {
	w := j.word.Load()
	if w&phaseMask != from || !j.word.CompareAndSwap(w, w&^phaseMask|jobPooled) {
		return false
	}
	j.root.fn, j.root.job, j.sink, j.next = nil, nil, sink{}, nil
	if j.failed() {
		j.fail.Store(nil)
	}
	return true
}

// finish publishes completion with one Swap (only finish leaves a live
// phase, so the generation it loaded cannot move). The Swap is its last
// touch on the frame unless the phase it displaced names a party that pins
// the frame — a waiter still inside Wait, a receiver not yet handed the
// job; anyone else who observes done may Release at once. It reports
// whether it woke a goroutine: the waiter, or a receiver it delivered to.
func (j *Job) finish() bool {
	gen := j.word.Load() &^ phaseMask
	switch j.word.Swap(gen|jobDone) & phaseMask {
	case jobWaiting:
		j.wake <- struct{}{}
		return true
	case jobSubscribed:
		return j.sink.deliver(j)
	}
	return false
}

// Subscribe registers ch to receive the job's handle exactly once when
// it completes — the channel-driven alternative to Wait for callers
// multiplexing many jobs onto one receiver. It may be called before or
// after completion: the CAS inFlight → subscribed hands delivery to the
// completing worker, and a Subscribe that loses it to finish delivers the
// job itself.
//
// Contract: the receiver owns completion for a subscribed job. No other
// goroutine may Wait, Err, or Release the handle, and ch must have
// capacity for every subscribed job in flight — the delivery send is the
// completing worker's last action, and a full channel would stall it.
// One channel may serve any number of jobs; at most one Subscribe per
// job generation.
func (j *Job) Subscribe(ch chan *Job) { j.subscribe(sink{ch: ch}) }

// SubscribeTo is Subscribe with an Outbox as the receiver's end — what
// the network edge's writer drains: delivery is one CAS, needs no
// capacity, and wakes the receiver once per drain instead of once per job.
// The contract is Subscribe's.
func (j *Job) SubscribeTo(ob *Outbox) { j.subscribe(sink{box: ob}) }

func (j *Job) subscribe(s sink) {
	w := j.word.Load()
	if w&phaseMask == jobInFlight {
		j.sink = s // published by the CAS; finish reads it only in phase subscribed
		if j.word.CompareAndSwap(w, w&^phaseMask|jobSubscribed) {
			return
		}
	}
	if !j.done() {
		panic("core: Subscribe on a released, waited-on or already subscribed job")
	}
	s.deliver(j)
}

// SetTag attaches an opaque caller value to the job for the rest of its
// generation; Tag reads it back. The network edge keys result records by
// it. Call it before the Subscribe, SubscribeTo or Wait that hands the
// job's completion to its receiver; the value is reset on frame recycling
// like every other per-submission field.
func (j *Job) SetTag(v uint64) { j.tag = v }

// Tag returns the value set by SetTag (0 if never set). Like the other
// stamps it is for the job's receiver: read it after Wait returns or
// after the job was delivered.
func (j *Job) Tag() uint64 { return j.tag }

// resetForSubmit re-initializes a (possibly recycled) frame for one
// submission. The frame pool hands frames to one submitter at a time, so
// no other goroutine can observe the reset; the generation bump that makes
// the frame live is its last store. A frame not in phase pooled here was
// put in the pool twice or used after Release.
func (j *Job) resetForSubmit(tm *Team, lane int, id int64, fn TaskFunc, class load.Class, tenant load.Tenant) {
	w := j.word.Load()
	if w&phaseMask != jobPooled {
		panic("core: job frame acquired while live")
	}
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
	j.migrated = false
	j.tag = 0
	j.home = tm
	j.lane = lane
	j.root.reset(fn, nil, 0)
	j.root.job = j
	j.word.Store(w + 1<<phaseBits + jobInFlight)
}

// QueueDelay returns how long the job waited in the admission queue before
// a worker adopted it. Valid after completion.
func (j *Job) QueueDelay() time.Duration { return time.Duration(j.startNS - j.submitNS) }

// RunTime returns the time from adoption to quiescence. A job's run is
// timed from the moment its worker was free to take it: a worker that
// adopts it straight after finishing another job starts it at that job's
// end reading, or at its submission if that came later (Team.adopt).
// Valid after completion.
func (j *Job) RunTime() time.Duration { return time.Duration(j.endNS - j.startNS) }

// failed reports whether a task of this job has panicked.
func (j *Job) failed() bool { return j.fail.Load() != nil }

// recordPanic fails the job with the first panic value and the stack of
// its recovery point, cancelling the job's remaining task bodies.
func (j *Job) recordPanic(r any, stack []byte) {
	j.fail.CompareAndSwap(nil, &PanicError{Value: r, Stack: stack})
}
