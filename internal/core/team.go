package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/load"
	"repro/internal/numa"
	"repro/internal/prof"
	"repro/internal/rng"
)

// Team is a set of workers executing parallel regions, the analogue of an
// OpenMP thread team. A Team is reusable: Run and Parallel may be called
// any number of times, sequentially.
//
// Config.Workers is the team's maximum capacity, not a frozen size: in
// task-service mode (Serve) the running worker set is an active mask over
// that capacity — SetActive(n) keeps workers [0, n) serving and parks the
// rest on a wakeup, so an elastic capacity controller can move worker
// quota between teams at runtime. Parallel regions always run at full
// capacity; the mask resets to Workers when the service closes.
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
	// (victim selection; the ordering lets the DLB take active prefixes).
	remotes [][]int
	// dlb is the team's *effective* DLB configuration, read through an
	// atomic pointer at every scheduling point so the adaptive policy
	// controller (and RetuneLive) can swap it while workers run. cfg.DLB
	// keeps the construction-time value; Team.DLB reads the live one.
	dlb atomic.Pointer[DLBConfig]
	// victim selects steal victims for idle thieves (Config.Policy.Victim,
	// default load.CondRandom — the paper's conditionally random pick).
	victim load.VictimPolicy
	// admit is the admission policy of the task-service mode
	// (Config.Admit, default load.BlockWhenFull).
	admit load.AdmitPolicy
	// satState is the admission edge's saturation verdict: satAuto while
	// no adaptive controller runs (SubmitCtx then checks Load() >= 1 per
	// call), satOn/satOff once the controller's hysteresis-damped tracker
	// has established one (see PolicyTick).
	satState atomic.Int32
	// plane is the team's load-signal plane: one lock-free cell per
	// worker, written by that worker's Sampler at a uniform cadence and
	// aggregated by Team.Signals for the balancing policies above.
	plane *load.Plane
	// sigAgg/sigStamp cache the plane aggregation for sigCacheTTL so hot
	// readers (a sharded pool's dispatcher on every Submit) do not rescan
	// every worker cell.
	sigAgg   atomic.Pointer[load.Signals]
	sigStamp atomic.Int64
	// polMu serializes adaptive-controller ticks; adapt is the
	// controller's classifier state, created per Serve generation when
	// the adaptive policy is on.
	polMu sync.Mutex
	adapt *load.Adaptive
	// active is the size of the active worker set: workers [0, active)
	// run, workers [active, n) park. Outside task-service mode it is
	// always n (SetActive is service-only and Close restores it), so
	// regions and their barrier see the full team. Read on every spawn
	// and victim pick; written by SetActive.
	active atomic.Int32
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
	d := cfg.DLB
	tm.dlb.Store(&d)
	tm.victim = cfg.Policy.Victim
	if tm.victim == nil {
		tm.victim = load.CondRandom{}
	}
	tm.admit = cfg.Admit
	if tm.admit == nil {
		tm.admit = load.BlockWhenFull{}
	}
	tm.plane = load.NewPlane(cfg.Workers)
	tm.active.Store(int32(cfg.Workers))

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
		w.sig.Init(tm.plane.Cell(i))
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

// Workers returns the team's maximum capacity (Config.Workers). The
// number of workers currently running may be smaller in task-service
// mode; see ActiveWorkers and SetActive.
func (tm *Team) Workers() int { return tm.n }

// ActiveWorkers returns the size of the active worker set. It equals
// Workers() except while a task service has parked part of the team with
// SetActive.
func (tm *Team) ActiveWorkers() int { return int(tm.active.Load()) }

// Config returns the validated configuration the team runs with. Its DLB
// field is the construction-time value; see DLB for the live one.
func (tm *Team) Config() Config { return tm.cfg }

// DLB returns the team's effective DLB configuration — cfg.DLB as
// constructed, unless Retune/RetuneLive (e.g. the adaptive policy
// controller) has since replaced it.
func (tm *Team) DLB() DLBConfig { return *tm.dlb.Load() }

// sigCacheTTL bounds how stale Team.Signals' worker-plane aggregation may
// be. Queue depth, running jobs, and capacity are always read fresh; only
// the per-worker EWMA aggregation (an O(workers) scan) is cached, so a
// dispatcher calling Signals on every placement stays O(1).
const sigCacheTTL = 200 * time.Microsecond

// Signals returns the team's current load signals — the uniform surface
// every balancing level consumes instead of probing team internals. For a
// serving team, QueueDepth/Running/Capacity are the admission backlog,
// jobs in flight, and active workers (the shard-level signals a pool's
// dispatch, migration, and quota policies compare); ServiceNS, TaskRate,
// StealRate, and IdleRatio aggregate the active workers' signal-plane
// cells (what the adaptive controller classifies). Safe for any
// goroutine.
func (tm *Team) Signals() load.Signals {
	now := tm.profile.Now()
	var agg load.Signals
	if p := tm.sigAgg.Load(); p != nil && now-tm.sigStamp.Load() < int64(sigCacheTTL) {
		agg = *p
	} else {
		act := int(tm.active.Load())
		agg = load.Aggregate(tm.plane.Snapshot()[:act])
		// Publish a private copy: agg itself is overlaid with the fresh
		// service-mode gauges below, which must not mutate what cached
		// readers dereference.
		cached := agg
		tm.sigAgg.Store(&cached)
		tm.sigStamp.Store(now)
		tm.profile.SetLoadSignals(agg.ServiceNS, agg.TaskRate, agg.StealRate, agg.IdleRatio)
	}
	if tm.Serving() {
		agg.QueueDepth = float64(tm.profile.QueueDepth())
		for c := 0; c < int(load.NumClasses); c++ {
			agg.ClassQueueDepth[c] = float64(tm.profile.ClassQueued(c))
		}
		agg.JobNS = tm.profile.JobTimeNS()
		agg.Running = max(0, float64(tm.ActiveJobs())-agg.QueueDepth)
	}
	agg.Capacity = float64(tm.ActiveWorkers())
	return agg
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
func (tm *Team) Run(f TaskFunc) { tm.region(f, false) }

// Parallel opens an SPMD region: every worker executes f, then joins the
// team barrier. Equivalent to an OpenMP parallel region body.
func (tm *Team) Parallel(f TaskFunc) { tm.region(f, true) }

func (tm *Team) region(f TaskFunc, spmd bool) {
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
			if tm.cfg.Pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			w.beginRegion()
			if spmd || w.id == 0 {
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
// victim), the body, completion accounting, and descriptor recycling.
func (tm *Team) execute(w *Worker, t *Task) {
	w.timeoutCtr = 0 // no longer idle
	if d := tm.dlb.Load(); d.Strategy != DLBNone {
		tm.victimCheck(w, d)
	}
	th := w.prof
	th.Begin(prof.EvTask)
	prev := w.cur
	w.cur = t
	sample := w.sig.TaskStart()
	if j := t.job; j != nil {
		tm.runJobTask(w, t, j) // per-job panic isolation and cancellation
	} else {
		t.fn(w)
	}
	w.sig.TaskDone(sample)
	w.cur = prev
	th.End(prof.EvTask)

	if t.job == nil {
		tm.counter.finished(w.id)
	}
	if t.deps != nil {
		tm.completeDeps(w, t)
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
	if t.refs.Add(-1) == 0 {
		tm.cascade(w, t)
	}
}

// cascade recycles a fully completed task and propagates completion to
// ancestors whose last outstanding reference this was. A job's root task
// reaching zero here means the job's whole subtree has quiesced — the
// per-job analogue of the region barrier's termination detection.
func (tm *Team) cascade(w *Worker, t *Task) {
	for {
		if j := t.job; j != nil && t == &j.root {
			// finishJob releases the job's waiter, and the waiter may
			// Release() the frame — including this root task — for reuse
			// by an unrelated submission. Return without touching t again.
			// (A root has no parent and is never task-pooled, so nothing
			// below applies to it anyway.)
			if tm.finishJob(j) {
				w.woke = true
			}
			return
		}
		p := t.parent
		if !t.implicit && !t.noRecycle {
			t.fn = nil
			t.parent = nil
			t.deps = nil
			tm.alloc.Put(w.id, t)
		}
		if p == nil {
			return
		}
		if p.refs.Add(-1) != 0 {
			return
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
