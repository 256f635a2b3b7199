package core

import (
	"runtime"

	"repro/internal/prof"
)

// TaskGroup is the OpenMP taskgroup construct: unlike TaskWait, which
// joins only the current task's direct children, a taskgroup joins every
// task created inside its body *and all of their descendants*. The group is
// a frame in the task tree, not a counter beside it: body runs with a scope
// task as the current task, so what it spawns are the scope's children, and
// the rule every task already follows — a child counts as done in its
// parent only when its own subtree is done — makes the scope's join count
// cover the whole subtree. Nested taskgroups compose because the inner
// scope is a child of the outer one.
//
// TaskGroup runs body and then blocks until every task spawned within it
// (transitively) has completed, executing other queued tasks while
// waiting — a scheduling point, like TaskWait.
func (w *Worker) TaskGroup(body TaskFunc) {
	tm, cur := w.team, w.cur
	scope := tm.alloc.Get(w.id)
	scope.reset(nil, cur, int32(w.id))
	scope.scope = true
	scope.job = cur.job
	cur.spawned++
	w.cur = scope
	// The scope's body ends on every way out. When body panics, job-mode
	// recovery (runJobTask) resumes cur's completion accounting; cur stays
	// open through the scope until the group's stragglers have finished,
	// and the last of them completes it like any child would.
	defer func() {
		w.cur = cur
		if scope.bodyDone() {
			tm.cascade(w, scope)
		}
	}()
	body(w)

	if scope.open() > 0 {
		w.waitFor(scope, 0)
	}
}

// waitFor is the shared scheduling-point loop, timed as one EvTaskWait
// span: execute queued tasks, run the thief protocol while idle, and
// yield under oversubscription, until f has no more than open children
// left or the region aborts.
func (w *Worker) waitFor(f *Task, open int32) {
	tm := w.team
	th := w.prof
	th.Begin(prof.EvTaskWait)
	spins := 0
	for f.open() > open && !tm.aborted.Load() {
		if t := tm.sched.pop(w.id); t != nil {
			tm.execute(w, t)
			spins = 0
			continue
		}
		if d := &tm.cfg.DLB; d.Strategy != DLBNone {
			tm.thiefStep(w, d)
		}
		spins++
		if spins > stallSpins {
			runtime.Gosched()
			spins = 0
		}
	}
	th.End(prof.EvTaskWait)
}
