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

// CallFunc is the body of a call task (Worker.SpawnCall): a plain function
// rather than a closure, which reads its arguments from its own frame
// (Task.Arg) and hands its result back through it (Task.Return). Spawning
// one allocates nothing while the spawner's frame has a free result slot.
type CallFunc func(*Worker, *Task)

// taskSlots is the number of call-task result words one frame holds. Nine
// covers every frame of the bots-mix workload (fib(18), 8-queens), and it
// leaves a Job frame, which embeds its root Task, 16 bytes short of the
// 320-byte size class it fits in.
const taskSlots = 9

// Task is a task descriptor. Descriptors are recycled through the
// configured allocator; see reset for which fields are restored on reuse.
// args and slots never are: SpawnCall writes each word before it is read.
//
// Lifetime is an owner-counted join. While the body runs, only the worker
// running it spawns children, so it counts them in the plain field
// spawned; each child whose subtree is done does one refs.Add(-1), which
// keeps refs at or below zero until the body ends. The body's end adds
// spawned back (and skips the add when it spawned nothing), which leaves
// refs at the number of children still open. Whoever brings refs to zero —
// the body's end, or the last child — completes the frame, so a task is
// recycled only once its body and all of its descendants' bodies have
// finished. spawned + refs is the number of open children, which is what
// TaskWait and TaskGroup wait on. Every frame, pooled or fresh, holds
// refs == 0 between lives.
type Task struct {
	// fn is a closure task's body, body a call task's. At most one is set,
	// and both are nil in a pooled frame.
	fn     TaskFunc
	body   CallFunc
	parent *Task
	// next links tasks inside the GOMP global queue, a FIFO list.
	next *Task
	// job is the submitted job this task belongs to (inherited from the
	// creator), or nil for tasks of a classic parallel region. Job tasks
	// get per-job panic isolation and cancellation; the job's root task is
	// &job.root, whose completion quiesces the job.
	job *Job
	// out is where a call task's Return lands: a slot of its spawner's
	// frame, or a heap word once that frame's slots are all handed out.
	out *uint64

	refs    atomic.Int32
	creator int32

	// implicit marks per-worker region roots, which are statically
	// allocated and must never be recycled.
	implicit bool
	// scope marks a TaskGroup's frame: never executed, only the parent of
	// what the group's body spawns while it stands in as the current task.
	scope bool
	// nslot counts the slots this frame has handed out; it only grows
	// while the frame's body runs.
	nslot uint8
	// spawned counts the children this frame's body created. Only the
	// worker running the body writes it, so it needs no atomic; see refs.
	spawned int32

	// args is a call task's inline argument block (SpawnCall's a0–a2).
	args [3]uint64
	// slots are the result words of the call tasks this frame's body
	// spawns. An open child keeps the frame alive until it has written its
	// word, so the spawner can read it after TaskWait.
	slots [taskSlots]uint64
}

// reset prepares a recycled descriptor for a new task. body, out and refs
// are already zero: cascade clears the first two on the way into the
// pool, and a frame reaches the pool only once refs is back at zero.
func (t *Task) reset(fn TaskFunc, parent *Task, creator int32) {
	t.fn = fn
	t.parent = parent
	t.spawned = 0
	t.creator = creator
	t.implicit = false
	t.next = nil
	t.scope = false
	t.nslot = 0
	t.job = nil
}

// bodyDone is the end of t's body in the join count: it adds back the
// children the body spawned and reports whether t is complete — nothing
// spawned, or every child already done — and so must be cascaded by the
// caller. A false return hands completion to the last open child; t may
// be recycled by then, so the caller must not touch it again.
func (t *Task) bodyDone() bool {
	n := t.spawned
	return n == 0 || t.refs.Add(n) == 0
}

// open is the number of t's children not yet done. Only the worker running
// t's body may ask.
func (t *Task) open() int32 { return t.spawned + t.refs.Load() }

// run executes the task's body, whichever kind it has.
func (t *Task) run(w *Worker) {
	if t.body != nil {
		t.body(w, t)
		return
	}
	t.fn(w)
}

// Arg returns argument i (0, 1 or 2) of a call task, as passed to
// SpawnCall.
func (t *Task) Arg(i int) uint64 { return t.args[i] }

// Return delivers a call task's result to the word SpawnCall returned to
// its spawner. A call task that never returns leaves that word zero.
func (t *Task) Return(v uint64) { *t.out = v }
