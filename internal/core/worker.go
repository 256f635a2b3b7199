package core

import (
	"sync/atomic"
	"time"

	"repro/internal/intake"
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

	// view is the worker's read-only window for victim selection.
	view victimView
}

// ID returns the worker's id in [0, Team.Workers()).
func (w *Worker) ID() int { return w.id }

// Zone returns the worker's NUMA zone.
func (w *Worker) Zone() int { return w.zone }

// beginRegion resets per-region worker state and installs a fresh implicit
// root task. The implicit task's body never ends in the join count, so
// its children leave refs at minus what the last region spawned.
func (w *Worker) beginRegion() {
	w.implicit.reset(nil, nil, int32(w.id))
	w.implicit.refs.Store(0)
	w.implicit.implicit = true
	w.cur = &w.implicit
	w.timeoutCtr = 0
	w.redirectThief = -1
	w.redirectLeft = 0
	w.redirectedAny = false
	w.handlingReq = false
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

// idle is one empty poll of a scheduling loop: the worker takes a thief
// step and opens the EvStall span on the first poll of a spell. It
// reports true once per stallSpins polls — the loop's cue to yield the OS
// thread — and at the first poll after a wake: on a busy processor the
// goroutine the worker woke runs only once it yields.
func (w *Worker) idle() bool {
	if d := &w.team.cfg.DLB; d.Strategy != DLBNone {
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
func (w *Worker) Spawn(fn TaskFunc) {
	w.prof.Begin(prof.EvTaskCreate)
	t := w.team.alloc.Get(w.id)
	t.reset(fn, w.cur, int32(w.id))
	w.linkChild(t)
	w.place(t)
}

// SpawnCall creates a call task running body as a child of the current
// task, with a0–a2 as its arguments (Task.Arg), and returns the word its
// Task.Return writes. Read the word after TaskWait, or after the TaskGroup
// the call was made in; it belongs to the running task body and stays
// valid until that body returns.
//
// The arguments travel in the task frame. The result goes to one of the
// nine slots (taskSlots) of the spawner's frame, which the child's
// reference keeps alive until the child has finished, so the first nine
// calls of a task body allocate nothing. A slot is never handed out twice
// during one body, TaskWait or not: each later call is deferred all the
// same, with one 8-byte heap word as its result. A body that spawns call
// tasks in a long loop therefore pays one small allocation per iteration
// past the ninth.
func (w *Worker) SpawnCall(body CallFunc, a0, a1, a2 uint64) *uint64 {
	w.prof.Begin(prof.EvTaskCreate)
	t := w.team.alloc.Get(w.id)
	t.reset(nil, w.cur, int32(w.id))
	t.body = body
	t.args = [3]uint64{a0, a1, a2}
	w.linkChild(t)
	f := w.cur
	for f.scope { // a TaskGroup scope is never executed: use the running body's frame
		f = f.parent
	}
	var out *uint64
	if n := f.nslot; n < taskSlots {
		f.nslot = n + 1
		out = &f.slots[n]
		*out = 0
	} else {
		out = new(uint64)
	}
	t.out = out
	w.place(t)
	return out
}

// linkChild makes a freshly reset descriptor a child of the current task:
// it joins the current task's job and join count and is counted as
// created.
func (w *Worker) linkChild(t *Task) {
	cur := w.cur
	t.job = cur.job // job tasks beget job tasks
	cur.spawned++
	if t.job == nil {
		w.team.counter.created(w.id) // the region barrier's count; a job quiesces through its root
	}
	w.prof.Inc(prof.CntTasksCreated)
}

// place is the one placement path of a created task: the NA-RP redirect
// while one is armed, else the substrate's static balancer, else — every
// queue it may use is full — immediate execution on w (XQueue's overflow
// rule). It closes the creator's EvTaskCreate span.
func (w *Worker) place(t *Task) {
	th := w.prof
	placed := w.redirectThief >= 0 && w.tryRedirect(t)
	if !placed && w.push(t) {
		th.Inc(prof.CntStaticPush)
		placed = true
	}
	th.End(prof.EvTaskCreate)
	if !placed {
		w.runNow(t)
	}
}

// runNow executes t at once on w instead of queueing it: a task no queue
// could take.
func (w *Worker) runNow(t *Task) {
	w.prof.Inc(prof.CntImmExec)
	w.team.execute(w, t)
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
// migration, NA-RP redirect) and announces it to that worker on success.
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
// the service bell once nothing is in flight or its idleSpin budget is
// spent (service.go), only the owner polls an XQueue row, and nothing
// but an announcement wakes a sleeper, so a push the owner never hears
// of would sit for good. The order is publish, then announce — the producer
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
	for f, open := w.cur, int32(0); ; f, open = f.parent, 1 {
		if f.open() > open {
			w.waitFor(f, open)
		}
		if !f.scope {
			return
		}
	}
}
