package core

import (
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/intake"
	"repro/internal/load"
	"repro/internal/prof"
)

// Task-service mode: instead of executing one parallel region at a time,
// the team's workers run persistently and serve independent jobs submitted
// by any number of client goroutines. A bounded admission queue provides
// backpressure; per-job quiescence detection (Job.root's join count)
// replaces the team barrier, which this mode needs only conceptually for
// startup/shutdown — startup is the worker launch, shutdown is Close's
// drain-then-join.

// ErrClosed is returned by Submit once Close has begun on the team.
var ErrClosed = errors.New("core: task service closed")

const (
	// idleSpin is the whole idle policy of a serving worker, beside the
	// bell: while a job of its team is in flight — its tasks may yet be
	// pushed into this worker's rows — it polls for at most this much
	// wall time after it last found work (the clock is read once per
	// stallSpins polls, at the Gosched cadence); then, or at its first
	// yield point when nothing is in flight, it registers on the service
	// bell and blocks until a producer announces work. ARCHITECTURE.md,
	// "Idle policy", has why the spin must be short, why not zero, and
	// the sizing sweep 50 µs is the optimum of.
	idleSpin = 50 * time.Microsecond
)

// service is the per-Serve state of a team in task-service mode.
type service struct {
	// submit is the bounded admission queue, one lock-free intake ring per
	// priority class (each Config.Backlog deep) so a flood in one class
	// never head-of-line-blocks another; workers adopt in class order
	// (tryRecv). runs[c] holds the wait-mode runs class c's ring had no
	// room for, served after the ring. ARCHITECTURE.md, "The submission
	// fast path", has the design.
	submit [load.NumClasses]*intake.Ring[*Task]
	runs   [load.NumClasses]runQueue
	// bell is what idle workers block on once their idleSpin budget is
	// spent, or at once with nothing in flight; every producer announces
	// on it after publishing (an intake enqueue, Worker.announce, Close),
	// and nothing else wakes a blocked worker.
	bell *intake.Bell
	// gate wakes a Close draining a closing service (jobDone).
	gate *intake.Gate
	// wg counts the serve loops.
	wg sync.WaitGroup

	// state is the whole lifecycle, active<<svcPhaseBits | phase: raised
	// only by reserve, lowered only by jobDone, walked only by Close, and
	// alone on its cache line — submitters, finishing workers and idle
	// pollers all touch it. ARCHITECTURE.md, "Service lifecycle", has the
	// phase × operation table.
	_     [8]uint64
	state atomic.Int64
	_     [7]uint64
}

// Phases of service.state, in the only order Close walks them.
const (
	svcServing  int64 = iota // jobs are counted in
	svcClosing               // reserve refuses; Close waits for active == 0
	svcStopping              // workers exit: their queues are empty by now
	svcStopped               // workers joined; the team may Serve again or open a region

	svcPhaseBits = 2
	svcPhaseMask = 1<<svcPhaseBits - 1
)

// phase returns the lifecycle phase.
func (svc *service) phase() int64 { return svc.state.Load() & svcPhaseMask }

// reserve counts n jobs in unless Close has begun. The CAS only ever
// starts from a serving observation, so a refused reservation is never
// visible in ActiveJobs.
func (svc *service) reserve(n int) bool {
	for {
		s := svc.state.Load()
		if s&svcPhaseMask != svcServing {
			return false
		}
		if svc.state.CompareAndSwap(s, s+int64(n)<<svcPhaseBits) {
			return true
		}
	}
}

// jobDone retires one reserved job; the last one out of a closing service
// wakes the Close waiting on it.
func (svc *service) jobDone() {
	if svc.state.Add(-1<<svcPhaseBits) == svcClosing {
		svc.gate.Wake()
	}
}

// Serve switches the team into task-service mode: all workers start and
// remain available to execute jobs submitted with Submit until Close. A
// serving team must not open parallel regions (Run panics); after
// Close the team may serve again or run regions.
func (tm *Team) Serve() error {
	tm.lifeMu.Lock()
	defer tm.lifeMu.Unlock()
	if tm.running.Load() {
		return errors.New("core: Serve during an open parallel region")
	}
	if tm.poisoned {
		return errors.New("core: team unusable after a region panic; build a new team")
	}
	if tm.Serving() {
		return errors.New("core: team is already serving")
	}
	svc := &service{
		gate: intake.NewGate(),
		bell: intake.NewBell(tm.n),
	}
	for c := range svc.submit {
		svc.submit[c] = intake.New[*Task](tm.cfg.Backlog)
		svc.runs[c].ring = svc.submit[c]
	}
	tm.svc.Store(svc)
	svc.wg.Add(tm.n)
	for _, w := range tm.workers {
		go tm.serve(svc, w)
	}
	return nil
}

// tryRecv receives one submitted root task in strict priority order
// (load.ByPriority): interactive before batch before background, and
// within a class the ring before the oldest parked run. A worker only
// reaches a lower class after finding every higher class's queue empty,
// which is what makes the per-class queues an anti-head-of-line-blocking
// device rather than mere partitioning. Non-blocking; nil when all queues
// are empty. woke reports that the take released a parked submitter.
func (svc *service) tryRecv() (t *Task, woke bool) {
	for _, c := range load.ByPriority {
		if t, ok := svc.submit[c].TryDequeue(); ok {
			return t, svc.runs[c].dequeued()
		}
		if t, woke := svc.runs[c].claim(); t != nil {
			return t, woke
		}
	}
	return nil, false
}

// pending reports whether any class ring or parked run holds a job — the
// non-consuming re-check a worker makes between registering on the bell
// and blocking.
func (svc *service) pending() bool {
	for c := range svc.submit {
		if svc.submit[c].Len() > 0 || svc.runs[c].head.Load() != nil {
			return true
		}
	}
	return false
}

// enqueueMigrated publishes a migrated root, already in this team's
// active count, into its class ring — or, when the ring is full, parks it
// behind the ring for the workers to claim, so a balancer never waits.
func (svc *service) enqueueMigrated(class load.Class, t *Task) {
	if !svc.submit[class].TryEnqueue(t) {
		svc.runs[class].park([]*Task{t})
	}
	svc.bell.Ring()
}

// QueueDepth returns the number of jobs submitted to this team but not yet
// adopted by a worker (including submitters currently blocked on a full
// admission queue). It reads the profile's NJOBS_QUEUED gauge and is the
// per-shard load signal of a two-level balancer; 0 when not serving.
func (tm *Team) QueueDepth() int64 { return tm.profile.QueueDepth() }

// ActiveJobs returns the number of jobs submitted and not yet quiesced,
// queued and running alike. 0 when the team is not serving.
func (tm *Team) ActiveJobs() int64 {
	svc := tm.svc.Load()
	if svc == nil {
		return 0
	}
	return svc.state.Load() >> svcPhaseBits
}

// Close stops admission, waits for every submitted job to quiesce, then
// stops the workers and joins them. Concurrent and repeated Close calls
// are safe: all of them return nil after the service has fully stopped.
// The stopped service stays attached so a later Submit still reports
// ErrClosed (not "never served") until the next Serve.
//
// Like Submit, Close must be called from outside the team's task bodies:
// it waits for every active job, so a task calling Close waits for its
// own job and deadlocks.
func (tm *Team) Close() error {
	svc := tm.svc.Load()
	if svc == nil {
		return errors.New("core: team is not serving")
	}
	// serving → closing before taking lifeMu, so a Close racing a stream
	// of submitters cannot chase an ever-growing backlog.
	for {
		s := svc.state.Load()
		if s&svcPhaseMask != svcServing || svc.state.CompareAndSwap(s, s|svcClosing) {
			break
		}
	}
	for {
		ch := svc.gate.Arm() // armed before the re-check: the last jobDone's wake closes it
		if svc.state.Load()>>svcPhaseBits == 0 {
			break
		}
		<-ch
	}
	// The count is zero for good; under lifeMu this Close alone writes the
	// word from here on.
	tm.lifeMu.Lock()
	defer tm.lifeMu.Unlock()
	if svc.phase() == svcStopped {
		return nil // another Close finished the teardown
	}
	svc.state.Store(svcStopping)
	svc.bell.RingAll() // idle sleepers must observe stopping
	svc.wg.Wait()
	svc.state.Store(svcStopped)
	return nil
}

// Serving reports whether the team is currently in task-service mode.
func (tm *Team) Serving() bool {
	svc := tm.svc.Load()
	return svc != nil && svc.phase() != svcStopped
}

// serve is one worker's service loop — the persistent analogue of the
// region barrier-wait loop: execute queued tasks, adopt newly submitted
// jobs when idle, run the thief protocol, and block on the bell once the
// idleSpin budget is spent, or at once when nothing is in flight.
func (tm *Team) serve(svc *service, w *Worker) {
	defer svc.wg.Done()
	w.beginRegion()
	w.bell = svc.bell
	defer func() { w.bell = nil }()
	// free is the clock reading of the last job this worker finished,
	// while nothing has run since: the start of the next job it adopts.
	// Every other execution replaces it and every idle poll drops it.
	var free int64
	for {
		if t := tm.sched.pop(w.id); t != nil {
			w.found()
			free = tm.execute(w, t)
			continue
		}
		if t, woke := svc.tryRecv(); t != nil {
			w.found()
			w.woke = w.woke || woke
			free = tm.adopt(w, t, free)
			continue
		}
		free = 0
		s := svc.state.Load()
		if s&svcPhaseMask >= svcStopping {
			w.found()
			return
		}
		w.prof.Inc(prof.CntIdlePolls)
		if !w.idle() {
			continue
		}
		// Spin on only while a job is in flight (idleSpin). One clock
		// read per stallSpins polls: idleSince is the first reading of
		// the current idle spell.
		if s>>svcPhaseBits > 0 {
			now := time.Now()
			if w.idleSince.IsZero() {
				w.idleSince = now
			}
			if now.Sub(w.idleSince) < idleSpin {
				runtime.Gosched()
				continue
			}
		}
		tm.idleWait(svc, w)
		w.idleSince = time.Time{} // announced work: a fresh budget
	}
}

// idleWait blocks worker w on the service bell until a producer announces
// work, or returns at once when the re-check already sees a reason to
// stay up. It is the consumer half of the pairing ARCHITECTURE.md
// tabulates under "Idle policy": producers publish, then announce; the
// worker registers, then re-checks everything a producer could have
// changed — the phase, the intake rings, its own queues.
func (tm *Team) idleWait(svc *service, w *Worker) {
	svc.bell.Sleep(w.id)
	if svc.phase() >= svcStopping || svc.pending() || !tm.sched.empty(w.id) {
		svc.bell.Cancel(w.id)
		return
	}
	w.prof.Inc(prof.CntIdleParks)
	// The announcer that sent the token has already deregistered w, and
	// at most one token is ever pending: nothing is left to cancel.
	<-svc.bell.Chan(w.id)
	w.prof.Inc(prof.CntBellWakes)
}

// adopt makes worker w the entry point of a submitted job: the worker
// becomes the root task's creator for locality accounting and executes it.
// The root's children are then distributed by the normal static balancer
// and DLB. Job tasks stay out of the region barrier's task counter — a
// serving team opens no region, and a job quiesces through its root's
// join cascade — so only the profile counts them.
//
// free is the serve loop's reading of the moment w finished its last job,
// 0 when something ran or w polled idle since: the job starts when w was
// free to take it, or when it was submitted if that came later, and only
// without a reading does adopt read the clock. adopt returns what
// execute returns.
func (tm *Team) adopt(w *Worker, t *Task, free int64) int64 {
	j := t.job
	if free == 0 {
		free = tm.profile.Now()
	}
	j.startNS = max(free, j.submitNS)
	j.worker = int32(w.id)
	t.creator = int32(w.id)
	tm.profile.Queued(j.class, j.ten, -1)
	w.prof.Inc(prof.CntJobsAdopted)
	// Mirror spawn's accounting so NTASKS_CREATED and NTASKS_EXECUTED
	// stay balanced across service-mode profiles.
	w.prof.Inc(prof.CntTasksCreated)
	return tm.execute(w, t)
}

// finishJob publishes a job's completion. It runs on whichever worker
// closed the root task's join count (see cascade), reads the clock once,
// and returns that reading (the job's end) and whether it woke the job's
// waiter or receiver.
func (tm *Team) finishJob(j *Job) (end int64, woke bool) {
	end = tm.profile.Now()
	j.endNS = end
	tm.profile.JobDone(prof.JobRecord{
		ID:       j.id,
		Worker:   int(j.worker),
		Submit:   j.submitNS,
		Start:    j.startNS,
		End:      end,
		Class:    int(j.class),
		Tenant:   j.tenant.ID,
		Panicked: j.failed(),
		Migrated: j.migrated,
	}, j.ten)
	// Close the loop to a tenant-tracking admission policy: the measured
	// run time feeds the tenant's service-time EWMA on the WFQ plane.
	if ob, ok := tm.admit.(load.TenantObserver); ok {
		ob.ObserveComplete(j.tenant, float64(end-j.startNS))
	}
	// Retire before publishing: a waiter that finish releases must already
	// find the job gone from ActiveJobs (Close joins the workers after the
	// count reaches zero, so finish still completes before it returns).
	tm.svc.Load().jobDone()
	// finish must be the last access to j on this path: it releases the
	// waiter, and a released waiter may Release() the frame — from that
	// point the frame can be recycled and belong to an unrelated job.
	return end, j.finish()
}

// runJobTask executes a job task's body with per-job panic isolation: a
// panic is recorded on the job — failing it and cancelling its remaining
// task bodies — instead of poisoning the team, and the profiling timeline
// unwinds to this frame so the worker keeps serving. Bodies of an already
// failed job are skipped; completion accounting still runs in execute, so
// the job quiesces and Wait returns.
func (tm *Team) runJobTask(w *Worker, t *Task, j *Job) {
	if j.failed() {
		w.prof.Inc(prof.CntTasksCancelled)
		return
	}
	depth := w.prof.OpenDepth()
	defer func() {
		if r := recover(); r != nil {
			j.recordPanic(r, debug.Stack())
			w.prof.UnwindTo(depth)
		}
	}()
	t.run(w)
}
