package core

import "repro/internal/prof"

// Task dependencies, the OpenMP depend(in/out/inout) model that
// GOMP_task resolves before enqueuing (§II-A, §III-A: "atomically update
// the parent task's dependency"). Dependencies order *sibling* tasks of
// one parent by the storage locations they declare:
//
//   - an in dependence waits for the last preceding out/inout sibling on
//     the same location;
//   - an out/inout dependence waits for the last writer and every reader
//     since it.
//
// Because siblings are created sequentially by their parent's body, the
// dependence table is owned by the creating task and needs no locking.
// Edges do race with predecessor completion (a predecessor may finish on
// another worker while the edge is being added), which is resolved with a
// tiny per-task spin lock — the same granularity LLVM uses, and far from
// the global-lock serialization the paper removes. A task with unresolved
// predecessors is held back; the completing worker releases and enqueues
// it when the last predecessor finishes.

// DepMode says how a task accesses a depend location.
type DepMode int

const (
	// DepIn declares a read of the location.
	DepIn DepMode = iota
	// DepOut declares a write of the location.
	DepOut
	// DepInOut declares a read-modify-write of the location.
	DepInOut
)

// Dep is one depend clause: a storage location (any comparable key;
// conventionally the address of the datum) and an access mode.
type Dep struct {
	Key  any
	Mode DepMode
}

// In returns a read dependence on key.
func In(key any) Dep { return Dep{Key: key, Mode: DepIn} }

// Out returns a write dependence on key.
func Out(key any) Dep { return Dep{Key: key, Mode: DepOut} }

// InOut returns a read-write dependence on key.
func InOut(key any) Dep { return Dep{Key: key, Mode: DepInOut} }

// depAccess tracks the last accessors of one location among the current
// task's children.
type depAccess struct {
	lastWriter *Task
	readers    []*Task
}

// depState is the per-task dependency bookkeeping. The table field is
// owner-only (the task's body); the successor fields are shared with
// completing predecessors and guarded by mu.
type depState struct {
	// table maps location keys to their current accessors; owned by the
	// task while its body runs, used to wire its children.
	table map[any]*depAccess

	mu         spinMutex
	done       bool
	successors []*Task
}

// addSuccessor links succ after t unless t already completed. It reports
// whether an edge was created.
func (tm *Team) addSuccessor(t, succ *Task) bool {
	ds := t.deps
	if ds == nil {
		return false // t declared no deps and cannot be a predecessor
	}
	ds.mu.Lock()
	if ds.done {
		ds.mu.Unlock()
		return false
	}
	ds.successors = append(ds.successors, succ)
	ds.mu.Unlock()
	return true
}

// wireEdge makes t wait on pred if pred has not completed. The caller must
// hold a guard unit in t.waitingDeps so a racing completion cannot release
// t mid-wiring: the count is raised *before* the edge becomes visible.
func (tm *Team) wireEdge(pred, t *Task) {
	if pred == nil || pred == t {
		return
	}
	t.waitingDeps.Add(1)
	if !tm.addSuccessor(pred, t) {
		t.waitingDeps.Add(-1) // predecessor already done
	}
}

// resolveDeps wires t (a new child of parent) after its predecessors per
// the depend clauses. t.waitingDeps must hold the creation guard unit.
// TaskGroup scopes are transparent to sibling ordering: the table lives on
// the task whose body is running, so depend-siblings inside and outside a
// group share it.
func (tm *Team) resolveDeps(parent, t *Task, deps []Dep) {
	for parent.scope {
		parent = parent.parent
	}
	if parent.deps == nil {
		parent.deps = &depState{}
	}
	if parent.deps.table == nil {
		parent.deps.table = make(map[any]*depAccess)
	}
	table := parent.deps.table
	for _, d := range deps {
		acc := table[d.Key]
		if acc == nil {
			acc = &depAccess{}
			table[d.Key] = acc
		}
		switch d.Mode {
		case DepIn:
			tm.wireEdge(acc.lastWriter, t)
			acc.readers = append(acc.readers, t)
		default: // DepOut, DepInOut
			tm.wireEdge(acc.lastWriter, t)
			for _, r := range acc.readers {
				tm.wireEdge(r, t)
			}
			acc.lastWriter = t
			acc.readers = acc.readers[:0]
		}
	}
}

// completeDeps marks t done and releases its successors; the worker that
// completes the last predecessor enqueues newly ready tasks.
func (tm *Team) completeDeps(w *Worker, t *Task) {
	ds := t.deps
	if ds == nil {
		return
	}
	ds.table = nil // children can no longer be created; free the table
	ds.mu.Lock()
	ds.done = true
	succs := ds.successors
	ds.successors = nil
	ds.mu.Unlock()
	for _, s := range succs {
		if s.waitingDeps.Add(-1) == 0 {
			tm.enqueueReady(w, s)
		}
	}
}

// enqueueReady places a dependence-released task through the normal
// placement path (static balancer; immediate execution on overflow).
func (tm *Team) enqueueReady(w *Worker, t *Task) {
	if w.push(t) {
		w.prof.Inc(prof.CntStaticPush)
		return
	}
	w.runNow(t)
}

// SpawnDeps creates a child task ordered by the given depend clauses. It
// may run on any worker once every predecessor sibling has completed.
// Tasks created with Spawn do not participate in dependence ordering.
func (w *Worker) SpawnDeps(fn TaskFunc, deps ...Dep) {
	if len(deps) == 0 {
		w.Spawn(fn)
		return
	}
	w.prof.Begin(prof.EvTaskCreate)
	// Dependence tasks bypass the recycling allocator: the parent's table
	// and predecessor successor-lists may hold references past completion,
	// so these descriptors are left to the garbage collector.
	t := &Task{}
	t.reset(fn, w.cur, int32(w.id), 0)
	t.noRecycle = true
	t.deps = &depState{} // participates as a predecessor for later siblings
	w.linkChild(t)

	// Hold one guard unit so a predecessor finishing mid-wiring cannot
	// release the task before all edges exist.
	t.waitingDeps.Store(1)
	w.team.resolveDeps(w.cur, t, deps)
	if t.waitingDeps.Add(-1) == 0 { // drop the guard unit
		w.place(t)
		return
	}
	w.prof.End(prof.EvTaskCreate)
}
