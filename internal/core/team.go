package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/load"
	"repro/internal/numa"
	"repro/internal/prof"
	"repro/internal/rng"
)

// Team is a set of workers executing parallel regions, the analogue of an
// OpenMP thread team. A Team is reusable: Run may be called any number of
// times, sequentially. Every one of its Config.Workers workers runs in
// every region and for as long as the team serves jobs.
type Team struct {
	cfg     Config
	n       int
	top     numa.Topology
	sched   scheduler
	counter taskCounter
	bar     barrier
	alloc   alloc.Allocator[Task]
	// jobPool recycles job frames (handle + embedded root task) so
	// steady-state submission is allocation-free: SubmitCtx draws a frame
	// from a pool lane via the shared (locked) level — submitters are
	// external goroutines with no worker identity, so the owner-only fast
	// level stays out of reach by design — and Job.Release returns it.
	jobPool *alloc.MultiLevel[Job]
	profile *prof.Profile
	workers []*Worker
	// remotes[z] lists the workers outside zone z in ascending id order
	// (victim selection).
	remotes [][]int
	// admit is the admission policy of the task-service mode
	// (Config.Admit, default load.BlockWhenFull).
	admit load.AdmitPolicy
	// running guards against overlapping regions; atomic so the Serve
	// lifecycle check cannot race a region opening on another goroutine.
	running atomic.Bool

	// lifeMu serializes lifecycle transitions (opening a region, Serve,
	// Close) so the region-vs-service guards are not check-then-act races.
	// It is never held while tasks run.
	lifeMu sync.Mutex
	// svc is the task-service state while the team is serving jobs (see
	// Serve/Submit/Close in service.go), nil otherwise. jobSeq numbers
	// jobs team-wide, across Serve generations, so JobRecord IDs in the
	// team's persistent profile never collide.
	svc    atomic.Pointer[service]
	jobSeq atomic.Int64

	// aborted is raised when a task body panics; scheduling loops observe
	// it and unwind so the region can terminate.
	aborted atomic.Bool
	// panicMu/panicVal capture the first panic for re-raising in Run.
	panicMu  sync.Mutex
	panicVal any
	poisoned bool
}

// NewTeam validates cfg and assembles the runtime it describes.
func NewTeam(cfg Config) (*Team, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tm := &Team{cfg: cfg, n: cfg.Workers, top: cfg.Topology}
	tm.admit = cfg.Admit
	if tm.admit == nil {
		tm.admit = load.BlockWhenFull{}
	}

	switch cfg.Sched {
	case SchedGOMP:
		gs := newGompSched()
		tm.sched = gs
		// GOMP keeps the task count behind the same global lock.
		tm.counter = gs
	case SchedLOMP:
		tm.sched = newLompSched(cfg.Workers, cfg.QueueSize, cfg.Seed)
	case SchedXQueue:
		tm.sched = newXQSched(cfg.Workers, cfg.QueueSize)
	default:
		return nil, fmt.Errorf("core: unknown scheduler %v", cfg.Sched)
	}

	if tm.counter == nil {
		switch cfg.Barrier {
		case BarrierTree:
			tm.counter = newDistCounter(cfg.Workers)
		default:
			tm.counter = &atomicCounter{}
		}
	}

	switch cfg.Barrier {
	case BarrierCentralLock:
		tm.bar = newLockBarrier(cfg.Workers, tm.counter)
	case BarrierCentralAtomic:
		tm.bar = newAtomicBarrier(cfg.Workers, tm.counter)
	case BarrierTree:
		tm.bar = newTreeBarrier(cfg.Workers, tm.counter, tm.sched)
	default:
		return nil, fmt.Errorf("core: unknown barrier %v", cfg.Barrier)
	}

	switch cfg.Alloc {
	case AllocContended:
		tm.alloc = alloc.NewContended[Task]()
	case AllocMultiLevel:
		tm.alloc = alloc.NewMultiLevel[Task](cfg.Workers)
	default:
		return nil, fmt.Errorf("core: unknown allocator %v", cfg.Alloc)
	}

	tm.jobPool = alloc.NewMultiLevel[Job](cfg.Workers)
	tm.profile = prof.New(cfg.Workers, cfg.Profile)
	tm.workers = make([]*Worker, cfg.Workers)
	for i := range tm.workers {
		w := &Worker{
			id:            i,
			zone:          tm.top.ZoneOf(i),
			team:          tm,
			rng:           rng.New(uint64(cfg.Seed)*0x2545f4914f6cdd1d + uint64(i)),
			prof:          tm.profile.Thread(i),
			redirectThief: -1,
		}
		w.round.Store(1) // the protocol's round numbers start at 1
		w.view.w = w
		tm.workers[i] = w
	}
	tm.remotes = make([][]int, tm.top.Zones)
	for z := 0; z < tm.top.Zones; z++ {
		for w := 0; w < tm.n; w++ {
			if tm.top.ZoneOf(w) != z {
				tm.remotes[z] = append(tm.remotes[z], w)
			}
		}
	}
	return tm, nil
}

// MustTeam is NewTeam, panicking on configuration errors. Intended for
// tests, examples, and benchmark harnesses with static configurations.
func MustTeam(cfg Config) *Team {
	tm, err := NewTeam(cfg)
	if err != nil {
		panic(err)
	}
	return tm
}

// Workers returns the team's size (Config.Workers).
func (tm *Team) Workers() int { return tm.n }

// Config returns the validated configuration the team runs with.
func (tm *Team) Config() Config { return tm.cfg }

// Signals returns the team's current load signals — the uniform surface
// every balancing level consumes instead of probing team internals. For a
// serving team, QueueDepth/Running/Capacity are the admission backlog,
// jobs in flight, and workers (the shard-level signals a pool's
// dispatch and migration policies compare) and JobNS is the
// smoothed job run time admission predicts with; outside service mode
// only Capacity is set. Every field is read fresh. Safe for any
// goroutine.
func (tm *Team) Signals() load.Signals {
	var sig load.Signals
	if tm.Serving() {
		sig.QueueDepth = float64(tm.profile.QueueDepth())
		for c := 0; c < int(load.NumClasses); c++ {
			sig.ClassQueueDepth[c] = float64(tm.profile.ClassQueued(c))
		}
		sig.JobNS = tm.profile.JobTimeNS()
		sig.Running = max(0, float64(tm.ActiveJobs())-sig.QueueDepth)
	}
	sig.Capacity = float64(tm.n)
	return sig
}

// Topology returns the team's NUMA topology.
func (tm *Team) Topology() numa.Topology { return tm.top }

// Profile returns the team's profiler (counters are always collected; the
// event timeline only when Config.Profile was set).
func (tm *Team) Profile() *prof.Profile { return tm.profile }

// AllocStats reports the task-allocator path counters.
func (tm *Team) AllocStats() alloc.Stats { return tm.alloc.Stats() }

// acquireJobs draws one job frame per element of frames from the team's
// frame pool, all from one lane under one lane lock, and returns the lane.
// The lane is derived from the batch's first job id, so concurrent
// submitters spread across the pool's per-lane locks instead of serializing
// on one free list, and the frames of a batch — which tend to complete, and
// come back, together (ReleaseJobs) — share a lane.
func (tm *Team) acquireJobs(firstID int64, frames []*Job) (lane int) {
	lane = int(firstID % int64(tm.n))
	tm.jobPool.GetSharedRun(lane, frames)
	return lane
}

// Run opens a parallel region in which worker 0 executes f while all other
// workers proceed straight to task execution and the team barrier — the
// OpenMP "parallel + single" idiom every BOTS benchmark uses. Run returns
// when every task created in the region has completed.
func (tm *Team) Run(f TaskFunc) {
	tm.lifeMu.Lock()
	if tm.Serving() {
		tm.lifeMu.Unlock()
		panic("core: parallel region on a serving team (Close the service first)")
	}
	if !tm.running.CompareAndSwap(false, true) {
		tm.lifeMu.Unlock()
		panic("core: nested or concurrent parallel regions on one team")
	}
	if tm.poisoned {
		tm.running.Store(false)
		tm.lifeMu.Unlock()
		panic("core: team unusable after a task panic (queues and counters are inconsistent); build a new team")
	}
	tm.lifeMu.Unlock()
	tm.bar.reset()
	var wg sync.WaitGroup
	wg.Add(tm.n)
	for _, w := range tm.workers {
		go func(w *Worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					tm.recordPanic(r)
				}
			}()
			w.beginRegion()
			if w.id == 0 {
				w.prof.Begin(prof.EvTask)
				f(w)
				w.prof.End(prof.EvTask)
			}
			tm.barrierWait(w)
		}(w)
	}
	wg.Wait()
	// Publish poisoning before releasing the running claim, under lifeMu,
	// so a concurrent Serve cannot observe running=false while the poison
	// flag is still unset.
	tm.lifeMu.Lock()
	failed := tm.aborted.Load()
	if failed {
		tm.poisoned = true
	}
	tm.running.Store(false)
	tm.lifeMu.Unlock()
	if failed {
		tm.panicMu.Lock()
		r := tm.panicVal
		tm.panicMu.Unlock()
		panic(r)
	}
}

// recordPanic captures the first panic value and aborts the region so
// every worker's scheduling loop unwinds.
func (tm *Team) recordPanic(r any) {
	tm.panicMu.Lock()
	if tm.panicVal == nil {
		tm.panicVal = r
	}
	tm.panicMu.Unlock()
	tm.aborted.Store(true)
}

// execute runs task t on worker w: a scheduling point (the worker becomes a
// victim), the body, completion accounting, and descriptor recycling. It
// returns the end reading of the job t's completion finished (cascade),
// else 0; only the serve loop keeps it (see adopt).
func (tm *Team) execute(w *Worker, t *Task) int64 {
	w.timeoutCtr = 0 // no longer idle
	if d := &tm.cfg.DLB; d.Strategy != DLBNone {
		tm.victimCheck(w, d)
	}
	th := w.prof
	th.Begin(prof.EvTask)
	prev := w.cur
	w.cur = t
	if j := t.job; j != nil {
		tm.runJobTask(w, t, j) // per-job panic isolation and cancellation
	} else {
		t.run(w)
	}
	w.cur = prev
	th.End(prof.EvTask)

	if t.job == nil {
		tm.counter.finished(w.id)
	}
	th.Inc(prof.CntTasksExecuted)
	switch tm.top.Classify(int(t.creator), w.id) {
	case numa.Self:
		th.Inc(prof.CntTasksSelf)
	case numa.Local:
		th.Inc(prof.CntTasksLocal)
	default:
		th.Inc(prof.CntTasksRemote)
	}
	if t.bodyDone() {
		return tm.cascade(w, t)
	}
	return 0
}

// cascade recycles a fully completed task and propagates completion to
// ancestors whose last open child this was: each parent gets one
// refs.Add(-1), and the one that lands on zero is complete too (see Task).
// A job's root task completing here means the job's whole subtree has
// quiesced — the per-job analogue of the region barrier's termination
// detection; cascade then returns finishJob's end reading, else 0.
func (tm *Team) cascade(w *Worker, t *Task) int64 {
	for {
		if j := t.job; j != nil && t == &j.root {
			// finishJob releases the job's waiter, and the waiter may
			// Release() the frame — including this root task — for reuse
			// by an unrelated submission. Return without touching t again.
			// This return is also what keeps a root, which lives in its
			// Job frame, out of the task pool.
			end, woke := tm.finishJob(j)
			w.woke = w.woke || woke
			return end
		}
		p := t.parent
		if !t.implicit {
			t.fn, t.body, t.out = nil, nil, nil
			t.parent = nil
			tm.alloc.Put(w.id, t)
		}
		if p == nil {
			return 0
		}
		if p.refs.Add(-1) != 0 {
			return 0
		}
		t = p
	}
}

// barrierWait is the end-of-region scheduling loop: keep executing tasks,
// run the thief protocol while idle, and poll the barrier until it
// releases.
func (tm *Team) barrierWait(w *Worker) {
	th := w.prof
	th.Begin(prof.EvBarrier)
	tm.bar.enter(w.id)
	for {
		if tm.aborted.Load() {
			break // a task panicked; the region is unwinding
		}
		if t := tm.sched.pop(w.id); t != nil {
			w.found()
			tm.bar.active(w.id)
			tm.execute(w, t)
			continue
		}
		if tm.bar.done(w.id) {
			break
		}
		if w.idle() {
			runtime.Gosched()
		}
	}
	w.found()
	th.End(prof.EvBarrier)
}
