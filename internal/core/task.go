// Package core implements the paper's task-parallel runtime: OpenMP-style
// teams with explicit tasks and taskwait, three interchangeable scheduling
// substrates (the GOMP global-lock queue, a LOMP-style work-stealing deque,
// and the lock-less XQueue), three team barriers (centralized lock-based,
// centralized atomic, and the hybrid distributed tree barrier), and the two
// lock-less NUMA-aware dynamic load balancing strategies, NA-RP and NA-WS.
//
// The composition of these pieces is selected by Config; Preset reproduces
// the named runtimes evaluated in the paper (GOMP, LOMP, XLOMP, XGOMP,
// XGOMPTB, and XGOMPTB with either DLB strategy).
package core

import "sync/atomic"

// TaskFunc is a task body. It receives the worker executing it, which is
// the handle for spawning children and waiting on them.
type TaskFunc func(*Worker)

// Task is a task descriptor. Descriptors are recycled through the
// configured allocator; all fields are reset on reuse.
//
// Lifetime is reference counted in refs: one reference for the unfinished
// body plus one per unfinished direct child. A task is recycled when refs
// reaches zero, which requires both its body and all of its descendants'
// bodies to have finished — children decrement their parent's count only
// when they themselves reach zero. Taskwait uses the same counter: it
// returns when refs drops to 1 (only the body reference remains).
type Task struct {
	fn      TaskFunc
	parent  *Task
	refs    atomic.Int32
	creator int32
	// priority orders tasks in the GOMP global queue (higher runs first);
	// the lock-less schedulers ignore it, as XQueue is relaxed-order.
	priority int32
	// implicit marks per-worker region roots, which are statically
	// allocated and must never be recycled.
	implicit bool
	// noRecycle marks tasks that may be referenced after completion
	// (dependence bookkeeping) and therefore bypass the allocator.
	noRecycle bool
	// next links tasks inside the GOMP global priority list.
	next *Task

	// scope marks a TaskGroup's frame: never executed, only the parent of
	// what the group's body spawns while it stands in as the current task.
	scope bool
	// job is the submitted job this task belongs to (inherited from the
	// creator), or nil for tasks of a classic parallel region. Job tasks
	// get per-job panic isolation and cancellation; the job's root task is
	// &job.root, whose completion quiesces the job.
	job *Job
	// deps is the dependence state: as a parent, the sibling-ordering
	// table; as a predecessor, the done flag and successor list. Nil for
	// tasks not involved in depend clauses.
	deps *depState
	// waitingDeps counts unresolved predecessors plus a creation guard;
	// the task is enqueued when it reaches zero.
	waitingDeps atomic.Int32
}

// reset prepares a recycled descriptor for a new task.
func (t *Task) reset(fn TaskFunc, parent *Task, creator, priority int32) {
	t.fn = fn
	t.parent = parent
	t.refs.Store(1)
	t.creator = creator
	t.priority = priority
	t.implicit = false
	t.noRecycle = false
	t.next = nil
	t.scope = false
	t.job = nil
	t.deps = nil
	t.waitingDeps.Store(0)
}
