package core

import (
	"sync/atomic"
	"time"

	"repro/internal/intake"
	"repro/internal/load"
	"repro/internal/prof"
	"repro/internal/rng"
)

// stallSpins is how many empty polls a worker makes before yielding the OS
// thread. Teams larger than GOMAXPROCS rely on the yield for progress.
const stallSpins = 64

// Worker is one member of a Team. A Worker's methods must only be called
// from inside a task body running on that worker (the runtime passes the
// correct *Worker to every TaskFunc).
type Worker struct {
	id   int
	zone int
	team *Team
	rng  rng.State
	prof *prof.Thread

	// cur is the task whose body is currently running on this worker.
	cur *Task
	// implicit is the per-region root task (one per worker, never recycled).
	implicit Task

	// Lock-less messaging cells (§IV-B); padded against false sharing.
	round   atomic.Uint64
	_       [7]uint64
	request atomic.Uint64
	_pad2   [7]uint64

	// Thief state (owner-only).
	timeoutCtr int
	// Victim state for NA-RP (owner-only).
	redirectThief int
	redirectLeft  int
	redirectedAny bool
	handlingReq   bool
	// parkCur rotates the hand-off target over the active set while this
	// worker drains its queues to park (owner-only).
	parkCur int
	// Stall bookkeeping of the worker's scheduling loop (owner-only; see
	// found and idle): an EvStall span is open, empty polls since the last
	// yield point, (serve loop) the idle spell's first clock reading, and
	// whether the worker woke a goroutine — a parked submitter, a job's
	// waiter or receiver — since its last yield point.
	stalling  bool
	woke      bool
	polls     int
	idleSince time.Time
	// bell is the service bell while this worker runs a serve loop, nil
	// otherwise (regions never sleep). Owner-only: it is how a task body
	// on this worker announces a push without touching shared team state.
	bell *intake.Bell

	// sig samples this worker's load signals (service time, task rate,
	// idle ratio, steal rate) into its cell of the team's signal plane
	// (owner-only; the cell hand-off is lock-free).
	sig load.Sampler
	// view is the worker's read-only window for victim policies.
	view victimView
}

// ID returns the worker's id in [0, Team.Workers()).
func (w *Worker) ID() int { return w.id }

// Zone returns the worker's NUMA zone.
func (w *Worker) Zone() int { return w.zone }

// Team returns the team this worker belongs to.
func (w *Worker) Team() *Team { return w.team }

// beginRegion resets per-region worker state and installs a fresh implicit
// root task.
func (w *Worker) beginRegion() {
	w.implicit.reset(nil, nil, int32(w.id), 0)
	w.implicit.implicit = true
	w.cur = &w.implicit
	w.timeoutCtr = 0
	w.redirectThief = -1
	w.redirectLeft = 0
	w.redirectedAny = false
	w.handlingReq = false
	w.parkCur = 0
}

// found ends the worker's idle spell — it found work, or its scheduling
// loop is over: the open EvStall span closes and the spin budget resets.
func (w *Worker) found() {
	if w.stalling {
		w.prof.End(prof.EvStall)
		w.stalling = false
	}
	w.polls, w.idleSince = 0, time.Time{}
}

// idle is one empty poll of a scheduling loop: the worker samples itself
// idle, takes a thief step, and opens the EvStall span on the first poll
// of a spell. It reports true once per stallSpins polls — the loop's cue
// to yield the OS thread — and at the first poll after a wake: on a busy
// processor the goroutine the worker woke runs only once it yields.
func (w *Worker) idle() bool {
	w.sig.Idle()
	if d := w.team.dlb.Load(); d.Strategy != DLBNone {
		w.team.thiefStep(w, d)
	}
	if !w.stalling {
		w.prof.Begin(prof.EvStall)
		w.stalling = true
	}
	w.polls++
	if w.polls <= stallSpins && !w.woke {
		return false
	}
	w.polls, w.woke = 0, false
	return true
}

// Spawn creates a task executing fn as a child of the current task. The
// task may run on any worker; fn receives the worker that runs it. Spawn
// never blocks: if the destination queue is full the task runs immediately
// on this worker (XQueue's overflow rule).
func (w *Worker) Spawn(fn TaskFunc) { w.spawn(fn, 0) }

// SpawnPriority is Spawn with a GOMP queue priority; higher priorities
// dequeue first under SchedGOMP and are ignored by the relaxed-order
// substrates.
func (w *Worker) SpawnPriority(priority int, fn TaskFunc) {
	w.spawn(fn, int32(priority))
}

func (w *Worker) spawn(fn TaskFunc, priority int32) {
	tm := w.team
	th := w.prof
	th.Begin(prof.EvTaskCreate)
	t := tm.alloc.Get(w.id)
	t.reset(fn, w.cur, int32(w.id), priority)
	t.job = w.cur.job // job tasks beget job tasks
	w.cur.refs.Add(1)
	if t.job == nil {
		tm.counter.created(w.id) // the region barrier's count; a job quiesces through its root
	}
	th.Inc(prof.CntTasksCreated)

	placed := false
	if w.redirectThief >= 0 { // NA-RP redirect armed
		placed = w.tryRedirect(t)
	}
	if !placed {
		if w.push(t) {
			th.Inc(prof.CntStaticPush)
			placed = true
		}
	}
	th.End(prof.EvTaskCreate)
	if !placed {
		th.Inc(prof.CntImmExec)
		tm.execute(w, t)
	}
}

// push places t with the substrate's static balancer on behalf of w and,
// on success, announces it. push and pushTo are the only callers of the
// scheduler's push methods, so no push site can forget the announcement a
// possibly sleeping consumer depends on (see announce).
func (w *Worker) push(t *Task) bool {
	target, ok := w.team.sched.push(w.id, t)
	if ok {
		w.announce(target)
	}
	return ok
}

// pushTo places t directly into worker to's queues on behalf of w (DLB
// migration, NA-RP redirect, park hand-off) and announces it to that
// worker on success.
func (w *Worker) pushTo(to int, t *Task) bool {
	if !w.team.sched.pushTo(w.id, to, t) {
		return false
	}
	w.announce(to)
	return true
}

// announce tells a possibly sleeping serve-loop worker that a task this
// worker just pushed is waiting: target is the worker whose queues hold
// it, or negative when any worker can take it. An idle worker sleeps on
// the service bell after idleSpin (service.go), and only the owner polls
// an XQueue row, so a push the owner never hears of would sit until the
// safety-net sweep. The order is publish, then announce — the producer
// half of the Dekker pairing whose consumer half (register, then re-check
// rings and own queues) is in Team.idleWait. While nobody sleeps this is
// an owner-only field read plus one atomic load of a read-mostly padded
// line; a push into w's own queues needs no announcement, w is awake.
func (w *Worker) announce(target int) {
	b := w.bell
	if b == nil {
		return // region mode: workers spin at the barrier, nobody sleeps
	}
	if target < 0 {
		b.Ring()
	} else if target != w.id {
		b.Wake(target)
	}
}

// TaskWait blocks until all children spawned by the current task have
// completed (including their descendants), executing other queued tasks
// while it waits — a scheduling point, as in OpenMP. Inside a TaskGroup
// body the current task's children hang off more than one frame: the
// innermost scope's, then each enclosing frame's up to the task itself,
// every one of which also counts the open scope below it.
func (w *Worker) TaskWait() {
	for f, open := w.cur, int32(1); ; f, open = f.parent, 2 {
		if f.refs.Load() > open {
			th := w.prof
			th.Begin(prof.EvTaskWait)
			w.waitFor(func() bool { return f.refs.Load() <= open })
			th.End(prof.EvTaskWait)
		}
		if !f.scope {
			return
		}
	}
}

// Yield is an explicit scheduling point: it executes at most one queued
// task if one is available and returns. It lets long-running tasks
// participate in load balancing, like OpenMP's taskyield.
func (w *Worker) Yield() {
	if t := w.team.sched.pop(w.id); t != nil {
		w.team.execute(w, t)
	}
}
