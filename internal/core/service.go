package core

import (
	"errors"
	"fmt"
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
// backpressure; per-job quiescence detection (Job.root's reference count)
// replaces the team barrier, which this mode needs only conceptually for
// startup/shutdown — startup is the worker launch, shutdown is Close's
// drain-then-join.

// ErrClosed is returned by Submit once Close has begun on the team.
var ErrClosed = errors.New("core: task service closed")

const (
	// idleSpin is the whole idle policy of a serving worker: it polls for
	// at most this much wall time after it last found work (the clock is
	// read once per stallSpins polls, at the Gosched cadence), then
	// registers on the service bell and blocks. ARCHITECTURE.md, "Idle
	// policy", has why it must be short, why not zero, and the sizing
	// sweep 50 µs is the optimum of.
	idleSpin = 50 * time.Microsecond
	// parkSweep is the period of the safety-net timer behind both kinds
	// of blocked worker. Every producer announces what it publishes, so
	// the sweep is not how work is found: one that does find work is
	// counted (prof.CntSweepFoundWork), and TestServeIdleWakeHammer runs
	// with it switched off. For a *parked* worker it also re-drains strays
	// from producers that raced the park and read the old active bound.
	parkSweep = 2 * time.Millisecond
)

// idleSweep is the sweep period of a bell-blocked serving worker, read
// once per serve loop. It is a variable only so the wake hammer can
// stretch it to an hour and turn a missing announcement into a hang.
var idleSweep = parkSweep

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
	// spent; every producer announces on it after publishing (an intake
	// enqueue, Worker.announce, SetActive, Close).
	bell *intake.Bell
	// gate wakes the lifecycle's two blocked waits: parked workers
	// (SetActive, Close) and a Close draining a closing service (jobDone).
	gate *intake.Gate
	// wg counts the serve loops and the policy controller, which ctlStop
	// stops (nil when the policy is static or its loop is disabled).
	wg      sync.WaitGroup
	ctlStop chan struct{}

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
// serving team must not open parallel regions (Run/Parallel panic); after
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
	// Each Serve generation starts at full capacity and with the admission
	// saturation verdict back at auto, both published before the service
	// so no submission can read a stale one.
	tm.setActiveLocked(tm.n)
	tm.satState.Store(satAuto)
	tm.svc.Store(svc)
	svc.wg.Add(tm.n)
	for _, w := range tm.workers {
		go tm.serve(svc, w)
	}
	if tm.cfg.Policy.Adaptive() {
		// Fresh classifier state per Serve generation; the background
		// loop is optional (Interval < 0 → manual PolicyTick only).
		tm.polMu.Lock()
		tm.adapt = load.NewAdaptive(load.AdaptiveConfig{Hysteresis: tm.cfg.Policy.Hysteresis})
		tm.polMu.Unlock()
		if tm.cfg.Policy.Interval > 0 {
			svc.ctlStop = make(chan struct{})
			svc.wg.Add(1)
			go tm.runPolicyController(svc, svc.ctlStop)
		}
	}
	return nil
}

// setActiveLocked installs a new active-set size in the team, the
// scheduler's static balancer, and the NWORKERS_ACTIVE gauge. Callers
// hold lifeMu (or are constructing the team).
func (tm *Team) setActiveLocked(n int) {
	tm.active.Store(int32(n))
	tm.sched.setActive(n)
	tm.profile.SetWorkersActive(int64(n))
}

// SetActive resizes the team's active worker set to workers [0, n),
// parking the rest: parked workers first drain and hand off their queued
// tasks (no task is ever stranded), then block on a wakeup. Growing the
// set unparks workers. n must be in [1, Workers()].
//
// SetActive is the capacity lever of an elastic runtime — a controller
// moving worker quota between teams calls SetActive down on the donor
// and up on the receiver. It only applies to task-service mode: the team
// must be serving (Serve), and the mask resets to full capacity when the
// service closes. Safe for concurrent use with Submit and Close from any
// goroutine outside the team's task bodies.
func (tm *Team) SetActive(n int) error {
	if n < 1 || n > tm.n {
		return fmt.Errorf("core: SetActive(%d) outside [1, %d]", n, tm.n)
	}
	tm.lifeMu.Lock()
	defer tm.lifeMu.Unlock()
	svc := tm.svc.Load()
	if svc == nil {
		return errors.New("core: SetActive on a team that is not serving; call Serve first")
	}
	if svc.phase() != svcServing {
		return ErrClosed
	}
	tm.setActiveLocked(n)
	svc.gate.Wake()
	// A worker blocked on the bell that just left the active set must go
	// park (and stop absorbing rings meant for active workers); it
	// re-checks the bound after registering, so store-then-ring here
	// cannot miss it.
	svc.bell.RingAll()
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
	svc.gate.Wake()    // parked workers must observe stopping and exit
	svc.bell.RingAll() // idle sleepers too, without waiting out their timers
	if svc.ctlStop != nil {
		close(svc.ctlStop)
	}
	svc.wg.Wait()
	svc.state.Store(svcStopped)
	// Restore the full-capacity invariant regions (and the next Serve)
	// rely on: outside service mode, active == Workers().
	tm.setActiveLocked(tm.n)
	return nil
}

// Serving reports whether the team is currently in task-service mode.
func (tm *Team) Serving() bool {
	svc := tm.svc.Load()
	return svc != nil && svc.phase() != svcStopped
}

// serve is one worker's service loop — the persistent analogue of the
// region barrier-wait loop: execute queued tasks, adopt newly submitted
// jobs when idle, run the thief protocol, block on the bell once the
// idleSpin budget is spent, and park fully whenever SetActive leaves this
// worker outside the active set.
func (tm *Team) serve(svc *service, w *Worker) {
	defer svc.wg.Done()
	if tm.cfg.Pin {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	w.beginRegion()
	w.bell = svc.bell
	defer func() { w.bell = nil }()
	sweep := idleSweep
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		if int32(w.id) >= tm.active.Load() && svc.phase() < svcStopping {
			w.found()
			tm.park(svc, w)
			continue
		}
		if t := tm.sched.pop(w.id); t != nil {
			w.found()
			tm.execute(w, t)
			continue
		}
		if t, woke := svc.tryRecv(); t != nil {
			w.found()
			w.woke = w.woke || woke
			tm.adopt(w, t)
			continue
		}
		if svc.phase() >= svcStopping {
			w.found()
			return
		}
		w.prof.Inc(prof.CntIdlePolls)
		if !w.idle() {
			continue
		}
		// One clock read per stallSpins polls: idleSince is the first
		// reading of the current idle spell.
		now := time.Now()
		if w.idleSince.IsZero() {
			w.idleSince = now
		}
		if now.Sub(w.idleSince) < idleSpin {
			runtime.Gosched()
			continue
		}
		if tm.idleWait(svc, w, timer, sweep) {
			w.idleSince = time.Time{} // announced work: a fresh budget
		} else {
			w.polls = stallSpins // a sweep: one poll, then back to sleep
		}
	}
}

// idleWait blocks worker w on the service bell until a producer announces
// work or the safety-net sweep fires, and reports which: true for an
// announcement (or a re-check that already saw the reason to stay up),
// false for a sweep. It is the consumer half of the pairing ARCHITECTURE.md
// tabulates under "Idle policy": producers publish, then announce; the
// worker registers, then re-checks everything a producer could have
// changed — the phase, the active bound, the intake rings, its own
// queues. Its load signals are flushed first so dispatch and migration
// read a sleeping shard as idle, not as whatever it last published.
func (tm *Team) idleWait(svc *service, w *Worker, timer *time.Timer, sweep time.Duration) bool {
	th := w.prof
	w.sig.Flush()
	svc.bell.Sleep(w.id)
	if svc.phase() >= svcStopping || int32(w.id) >= tm.active.Load() || svc.pending() || !tm.sched.empty(w.id) {
		svc.bell.Cancel(w.id)
		return true
	}
	th.Inc(prof.CntIdleParks)
	rearm(timer, sweep)
	select {
	case <-svc.bell.Chan(w.id):
		svc.bell.Cancel(w.id)
		th.Inc(prof.CntBellWakes)
		return true
	case <-timer.C:
	}
	svc.bell.Cancel(w.id)
	th.Inc(prof.CntSweepWakes)
	if svc.pending() || !tm.sched.empty(w.id) {
		th.Inc(prof.CntSweepFoundWork)
	}
	return false
}

// rearm resets t, whose channel may still hold a tick nobody took.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// park takes worker w out of the serving rotation until SetActive grows
// the active set past it again (or Close stops the service). It drains
// first — every task already routed to w is handed off to an active
// worker or executed here — and sweeps for strays while blocked, because a
// producer that raced the park (static push, DLB steal/redirect, both read
// the active bound lock-free) may still land a task in w's queues after
// the drain: parking never strands a task. Parked time is an EvPark
// timeline segment on w's thread.
func (tm *Team) park(svc *service, w *Worker) {
	th := w.prof
	th.Begin(prof.EvPark)
	tm.drainOnPark(w)
	timer := time.NewTimer(parkSweep)
	defer timer.Stop()
	for {
		// Arm before re-checking the condition: a concurrent
		// SetActive/Close stores its state first and then closes exactly
		// this channel, so the wake cannot be lost.
		ch := svc.gate.Arm()
		if svc.phase() >= svcStopping || int32(w.id) < tm.active.Load() {
			break
		}
		rearm(timer, parkSweep)
		select {
		case <-ch:
		case <-timer.C:
		}
		tm.drainOnPark(w) // sweep strays from producers that raced the park
	}
	th.End(prof.EvPark)
}

// drainOnPark empties w's own queues on the way into (or during) a park:
// each task is handed to an active worker, or executed here when every
// active worker's queue from w is full. Substrates whose queues remain
// reachable by active workers return nil from parkDrain immediately.
func (tm *Team) drainOnPark(w *Worker) {
	for {
		t := tm.sched.parkDrain(w.id)
		if t == nil {
			return
		}
		if !tm.handOff(w, t) {
			tm.execute(w, t)
		}
	}
}

// handOff pushes t from a parking worker w into some active worker's
// queue, rotating the target across calls so a drained backlog spreads
// over the whole active set. It reports false when every active target
// is full (or w is the only candidate).
func (tm *Team) handOff(w *Worker, t *Task) bool {
	act := int(tm.active.Load())
	for i := 0; i < act; i++ {
		target := w.parkCur + i
		for target >= act {
			target -= act
		}
		if target == w.id {
			continue
		}
		if w.pushTo(target, t) {
			w.parkCur = target + 1
			return true
		}
	}
	return false
}

// adopt makes worker w the entry point of a submitted job: the worker
// becomes the root task's creator for locality accounting and executes it.
// The root's children are then distributed by the normal static balancer
// and DLB. Job tasks stay out of the region barrier's task counter — a
// serving team opens no region, and a job quiesces through its root's
// reference cascade — so only the profile counts them.
func (tm *Team) adopt(w *Worker, t *Task) {
	j := t.job
	tm.profile.Queued(j.class, j.tenant, -1)
	t.creator = int32(w.id)
	j.worker.Store(int32(w.id))
	j.startNS.Store(tm.profile.Now())
	w.prof.Inc(prof.CntJobsAdopted)
	// Mirror spawn's accounting so NTASKS_CREATED and NTASKS_EXECUTED
	// stay balanced across service-mode profiles.
	w.prof.Inc(prof.CntTasksCreated)
	tm.execute(w, t)
}

// finishJob publishes a job's completion. It runs on whichever worker drove
// the root task's reference count to zero (see cascade), and reports
// whether it woke the job's waiter or receiver.
func (tm *Team) finishJob(j *Job) bool {
	j.endNS.Store(tm.profile.Now())
	tm.profile.JobDone(prof.JobRecord{
		ID:       j.id,
		Worker:   int(j.worker.Load()),
		Submit:   j.submitNS.Load(),
		Start:    j.startNS.Load(),
		End:      j.endNS.Load(),
		Class:    int(j.class),
		Tenant:   j.tenant.ID,
		Panicked: j.failed(),
		Migrated: j.migrated.Load(),
	})
	// Close the loop to a tenant-tracking admission policy: the measured
	// run time feeds the tenant's service-time EWMA on the WFQ plane.
	if ob, ok := tm.admit.(load.TenantObserver); ok {
		ob.ObserveComplete(j.tenant, float64(j.endNS.Load()-j.startNS.Load()))
	}
	// Retire before publishing: a waiter that finish releases must already
	// find the job gone from ActiveJobs (Close joins the workers after the
	// count reaches zero, so finish still completes before it returns).
	tm.svc.Load().jobDone()
	// finish must be the last access to j on this path: it releases the
	// waiter, and a released waiter may Release() the frame — from that
	// point the frame can be recycled and belong to an unrelated job.
	return j.finish()
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
	t.fn(w)
}
