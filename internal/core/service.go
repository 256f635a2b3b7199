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
	// registers on the service bell and blocks. Spinning longer than one
	// park/unpark costs is never competitive, and a worker that spins by
	// yielding is re-queued ahead of the netpoller on a saturated P set,
	// so the connection reader that would hand it the next job is not
	// scheduled until every worker has stopped spinning: the spin is a
	// floor under the edge's round trip, not a way to shorten it. 50 µs
	// is the optimum of ISSUE 16's sizing sweep on the reference host
	// (3 µs to 184 µs; ARCHITECTURE.md, "Idle policy"): shorter spins pay
	// an extra kernel sleep per request and lengthen the open-loop
	// generator's lag, longer ones are paid in full by every round trip.
	idleSpin = 50 * time.Microsecond
	// parkSweep is the period of the safety-net timer behind both kinds
	// of blocked worker. Every producer announces what it publishes —
	// intake enqueues ring the bell, queue pushes go through Worker.push
	// and Worker.pushTo, SetActive and Close wake everyone — so the sweep
	// is not how work is found: a sweep that does find work is counted
	// (prof.CntSweepFoundWork), and TestServeIdleWakeHammer runs with it
	// switched off. For a *parked* worker (outside the active set, see
	// Team.SetActive) it also re-drains strays from producers that raced
	// the park and read the old active bound.
	parkSweep = 2 * time.Millisecond
)

// idleSweep is the sweep period of a bell-blocked serving worker, read
// once per serve loop. It is a variable only so the wake hammer can
// stretch it to an hour and turn a missing announcement into a hang.
var idleSweep = parkSweep

// service is the per-Serve state of a team in task-service mode.
type service struct {
	// submit is the bounded admission queue, one lock-free intake ring
	// per priority class (each Config.Backlog deep) so a flood in one
	// class can never head-of-line-block another: workers adopt strictly
	// in class order (tryRecv), but a full background queue leaves the
	// interactive queue's space untouched. Any worker may dequeue, which
	// keeps the SPSC discipline of the queueing substrates: a root task
	// enters a worker's domain only on that worker's goroutine. The ring
	// replaces a buffered channel: enqueue and dequeue are CAS-claimed
	// slots instead of a channel lock, a batched submission reserves its
	// whole group with one CAS (intake.Ring.EnqueueBatch), and the
	// waiting that channels bundled in is layered back on explicitly —
	// space (per-class producer gates, the backpressure path) and bell
	// (the consumer-side wake, see below).
	submit [load.NumClasses]*intake.Ring[*Task]
	// space[c] wakes submitters blocked on class c's full ring; a
	// consumer that frees a slot rings it (a single atomic load while
	// nobody is blocked).
	space [load.NumClasses]*intake.Gate
	// bell is what idle workers block on once their idleSpin budget is
	// spent. Every producer announces on it after publishing: an intake
	// enqueue rings it (any sleeper may adopt the job), a task push wakes
	// the worker whose queues took the task (Worker.announce), and
	// SetActive/Close ring everyone. Each is one atomic load while nobody
	// sleeps.
	bell *intake.Bell

	// mu guards the admission/drain state below.
	mu     sync.Mutex
	cond   *sync.Cond // signalled when active drops to zero
	active int64      // jobs submitted but not yet quiesced
	closed bool       // Submit rejects once set

	// stop tells workers to exit; set only after every job quiesced, so
	// queues are empty when workers observe it. done is raised once all
	// workers have actually exited — only then may a new Serve or a
	// parallel region reuse the substrate (SPSC discipline: never two
	// goroutines behind one worker id).
	stop atomic.Bool
	done atomic.Bool
	wg   sync.WaitGroup

	// parked is the gate parked workers block on: SetActive and Close
	// wake every one of them at once.
	parked *intake.Gate

	// ctlStop stops the adaptive policy controller's background loop
	// (nil when the policy is static or its loop is disabled); the
	// controller goroutine is counted in wg like the workers.
	ctlStop chan struct{}
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
	if old := tm.svc.Load(); old != nil && !old.done.Load() {
		return errors.New("core: team is already serving")
	}
	svc := &service{
		parked: intake.NewGate(),
		bell:   intake.NewBell(tm.n),
	}
	for c := range svc.submit {
		svc.submit[c] = intake.New[*Task](tm.cfg.Backlog)
		svc.space[c] = intake.NewGate()
	}
	svc.cond = sync.NewCond(&svc.mu)
	// Each Serve generation starts at full capacity (Close restored the
	// mask; see SetActive for shrinking it while serving) and
	// re-establishes the admission saturation verdict from scratch (auto
	// until a controller has observed enough), published before the
	// service so no submission can read a stale verdict.
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
	if svc.done.Load() {
		return ErrClosed
	}
	svc.mu.Lock()
	closed := svc.closed
	svc.mu.Unlock()
	if closed {
		return ErrClosed
	}
	tm.setActiveLocked(n)
	svc.parked.Wake()
	// A worker blocked on the bell that just left the active set must go
	// park (and stop absorbing rings meant for active workers); it
	// re-checks the bound after registering, so store-then-ring here
	// cannot miss it.
	svc.bell.RingAll()
	return nil
}

// tryRecv receives one submitted root task in strict priority order
// (load.ByPriority): interactive before batch before background. A
// worker only reaches a lower class after finding every higher class's
// queue empty, which is what makes the per-class queues an
// anti-head-of-line-blocking device rather than mere partitioning.
// Non-blocking; nil when all queues are empty. A successful dequeue
// rings the class's space gate so a submitter blocked on the full ring
// can take the freed slot.
func (svc *service) tryRecv() *Task {
	for _, c := range load.ByPriority {
		if t, ok := svc.submit[c].TryDequeue(); ok {
			svc.space[c].Wake()
			return t
		}
	}
	return nil
}

// pending reports whether any class ring holds a job — the non-consuming
// re-check a worker makes between registering on the bell and blocking.
func (svc *service) pending() bool {
	for c := range svc.submit {
		if svc.submit[c].Len() > 0 {
			return true
		}
	}
	return false
}

// enqueue publishes one admitted root task into its class ring and rings
// the bell for a sleeping worker. It reports false when the ring is at
// its bound (the admission policy then decides between waiting,
// rejection, and shedding).
func (svc *service) enqueue(class load.Class, t *Task) bool {
	if !svc.submit[class].TryEnqueue(t) {
		return false
	}
	svc.bell.Ring()
	return true
}

// enqueueBlocking publishes a root task that is already accounted as
// active, waiting on the class's space gate for as long as it takes. The
// wait always terminates: the job is in some team's active count, so
// workers keep serving (and draining this ring) until it completes.
func (svc *service) enqueueBlocking(class load.Class, t *Task) {
	if svc.enqueue(class, t) {
		return
	}
	g := svc.space[class]
	g.Add()
	defer g.Done()
	for {
		// Load the gate channel before retrying: a consumer frees its
		// slot before ringing, so either the retry sees the space or the
		// wake closes exactly this channel.
		ch := g.Chan()
		if svc.enqueue(class, t) {
			return
		}
		<-ch
	}
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
	svc.mu.Lock()
	n := svc.active
	svc.mu.Unlock()
	return n
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
	// Admission is cut before taking lifeMu so a Close racing a stream of
	// submitters cannot chase an ever-growing backlog, then the lifecycle
	// lock serializes the actual teardown with Serve and regions.
	svc := tm.svc.Load()
	if svc == nil {
		return errors.New("core: team is not serving")
	}
	svc.mu.Lock()
	svc.closed = true
	for svc.active > 0 {
		svc.cond.Wait()
	}
	svc.mu.Unlock()
	tm.lifeMu.Lock()
	defer tm.lifeMu.Unlock()
	if svc.done.Load() {
		return nil // another Close finished the teardown
	}
	svc.stop.Store(true)
	svc.parked.Wake()  // parked workers must observe stop and exit
	svc.bell.RingAll() // idle sleepers too, without waiting out their timers
	if svc.ctlStop != nil {
		// The teardown section runs exactly once (the done guard above),
		// so this close cannot double-fire.
		close(svc.ctlStop)
	}
	svc.wg.Wait()
	svc.done.Store(true)
	// Restore the full-capacity invariant regions (and the next Serve)
	// rely on: outside service mode, active == Workers().
	tm.setActiveLocked(tm.n)
	return nil
}

// Serving reports whether the team is currently in task-service mode.
func (tm *Team) Serving() bool {
	svc := tm.svc.Load()
	return svc != nil && !svc.done.Load()
}

// jobDone retires one job from the admission accounting.
func (svc *service) jobDone() {
	svc.mu.Lock()
	svc.active--
	if svc.active == 0 {
		svc.cond.Broadcast()
	}
	svc.mu.Unlock()
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
	th := w.prof
	// polls counts empty polls since the last clock read; idleSince is
	// the first clock reading of the current idle spell (zero while the
	// worker is finding work).
	polls := 0
	var idleSince time.Time
	stalling := false
	sweep := idleSweep
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		if int32(w.id) >= tm.active.Load() && !svc.stop.Load() {
			if stalling {
				th.End(prof.EvStall)
				stalling = false
			}
			tm.park(svc, w)
			polls, idleSince = 0, time.Time{}
			continue
		}
		if t := tm.sched.pop(w.id); t != nil {
			if stalling {
				th.End(prof.EvStall)
				stalling = false
			}
			tm.execute(w, t)
			polls, idleSince = 0, time.Time{}
			continue
		}
		if t := svc.tryRecv(); t != nil {
			if stalling {
				th.End(prof.EvStall)
				stalling = false
			}
			tm.adopt(w, t)
			polls, idleSince = 0, time.Time{}
			continue
		}
		if svc.stop.Load() {
			if stalling {
				th.End(prof.EvStall)
			}
			return
		}
		w.sig.Idle()
		if d := tm.dlb.Load(); d.Strategy != DLBNone {
			tm.thiefStep(w, d)
		}
		if !stalling {
			th.Begin(prof.EvStall)
			stalling = true
		}
		th.Inc(prof.CntIdlePolls)
		polls++
		if polls <= stallSpins {
			continue
		}
		polls = 0
		now := time.Now()
		if idleSince.IsZero() {
			idleSince = now
		}
		if now.Sub(idleSince) < idleSpin {
			runtime.Gosched()
			continue
		}
		if tm.idleWait(svc, w, timer, sweep) {
			idleSince = time.Time{} // announced work: a fresh budget
		} else {
			polls = stallSpins // a sweep: one poll, then back to sleep
		}
	}
}

// idleWait blocks worker w on the service bell until a producer announces
// work or the safety-net sweep fires, and reports which: true for an
// announcement (or a re-check that already saw the reason to stay up),
// false for a sweep.
//
// It is the consumer half of the Dekker pairing with every producer:
// register on the bell, then re-check each thing a producer could have
// changed — the stop flag, the active bound, the intake rings, w's own
// queues. A producer publishes first and announces second (enqueue then
// Ring; push then Wake; store then RingAll), so either the re-check sees
// the change or the announcement sees this sleeper; nothing slips through
// while the worker goes to sleep. The worker's load signals are flushed
// first so dispatch and migration read a sleeping shard as idle rather
// than as whatever it was when it last published.
func (tm *Team) idleWait(svc *service, w *Worker, timer *time.Timer, sweep time.Duration) bool {
	th := w.prof
	w.sig.Flush()
	svc.bell.Sleep(w.id)
	if svc.stop.Load() || int32(w.id) >= tm.active.Load() || svc.pending() || !tm.sched.empty(w.id) {
		svc.bell.Cancel(w.id)
		return true
	}
	th.Inc(prof.CntIdleParks)
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(sweep)
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

// park takes worker w out of the serving rotation until SetActive grows
// the active set past it again (or Close stops the service). The park is
// preceded by a queue drain — every task already routed to w is handed
// off to an active worker or executed here — and the blocked wait is
// punctuated by a slow stray sweep, because a producer that raced the
// park (static push, DLB steal/redirect, both read the active bound
// lock-free) may still land a task in w's queues after the drain. The
// combination guarantees parking never strands a task. Parked time is
// recorded as an EvPark timeline segment on w's thread.
func (tm *Team) park(svc *service, w *Worker) {
	th := w.prof
	th.Begin(prof.EvPark)
	tm.drainOnPark(w)
	timer := time.NewTimer(parkSweep)
	defer timer.Stop()
	svc.parked.Add()
	defer svc.parked.Done()
	for {
		// Load the wakeup channel before re-checking the condition: a
		// concurrent SetActive/Close stores its state first and then
		// closes exactly this channel, so the wake cannot be lost.
		ch := svc.parked.Chan()
		if svc.stop.Load() || int32(w.id) < tm.active.Load() {
			break
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(parkSweep)
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
// becomes the root task's creator for locality accounting, counts the task
// into the (single-writer) task counters, and executes it. The root's
// children are then distributed by the normal static balancer and DLB.
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
	tm.counter.created(w.id)
	tm.execute(w, t)
}

// finishJob publishes a job's completion. It runs on whichever worker drove
// the root task's reference count to zero (see cascade).
func (tm *Team) finishJob(j *Job) {
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
	// find the job gone from ActiveJobs. Close joins the workers after the
	// count reaches zero, so finish still completes before Close returns.
	if svc := tm.svc.Load(); svc != nil {
		svc.jobDone()
	}
	// finish must be the last access to j on this path: it releases the
	// waiter, and a released waiter may Release() the frame — from that
	// point the frame can be recycled and belong to an unrelated job.
	j.finish()
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
