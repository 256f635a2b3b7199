package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/intake"
	"repro/internal/load"
	"repro/internal/prof"
)

var (
	// ErrBacklogFull is returned by SubmitCtx when the submission's class
	// queue is full and the admission policy does not allow waiting.
	ErrBacklogFull = errors.New("core: admission backlog full")
	// ErrShed is returned by SubmitCtx when the admission policy shed the
	// submission: under saturation, its deadline could not be met given
	// the current job service time and queue depth.
	ErrShed = errors.New("core: job shed by admission policy")
	// ErrDeadlineExceeded is returned by SubmitCtx when the submission's
	// own deadline (SubmitOpts.Deadline) expired before the job could be
	// admitted — already past at submit, or reached while waiting for
	// queue space.
	ErrDeadlineExceeded = errors.New("core: submission deadline exceeded before admission")
	// ErrNotServing is returned by SubmitCtx when the team has no serving
	// worker set — Serve was never called, or the previous Serve has
	// fully wound down.
	ErrNotServing = errors.New("core: team is not serving; call Serve first")
	// ErrInvalid is the sentinel every malformed-submission error wraps
	// (nil function, class out of range, negative tenant weight), so
	// callers can branch with one errors.Is and the wire edge maps the
	// whole family to one status.
	ErrInvalid = errors.New("core: invalid submission")
	// ErrNilFunc is returned by SubmitCtx for a nil task function. It
	// wraps ErrInvalid.
	ErrNilFunc = fmt.Errorf("%w: nil task function", ErrInvalid)
)

// SubmitOpts qualifies one submission.
type SubmitOpts struct {
	// Priority is the submission's class. The zero value is ClassBatch —
	// the same neutral class plain Submit uses — so leaving it unset
	// never grants an accidental priority boost; interactive service
	// must be requested explicitly. Each class has its own bounded
	// admission queue of Config.Backlog jobs and workers adopt strictly
	// in priority order (interactive, batch, background).
	Priority load.Class
	// Deadline, when non-zero, is the absolute time by which the caller
	// needs the job complete. An already-expired deadline returns
	// ErrDeadlineExceeded immediately; a deadline reached while waiting
	// for queue space unblocks the wait with the same error; and a
	// deadline-aware admission policy (load.DeadlineShed) sheds the
	// submission when the deadline cannot plausibly be met. The deadline
	// is an admission contract only: a job admitted in time is run to
	// completion even if it finishes late.
	Deadline time.Time
	// Tenant identifies the submitting tenant and its fair-share weight.
	// The zero value is tenant 0 at weight 1, so single-tenant callers
	// never notice the dimension. A weighted-fair admission policy
	// (load.WFQAdmit) bounds each tenant's share of its class queue by
	// weight; every policy gets per-tenant counters, gauges, and latency
	// rings on the profile. A negative weight is a submission error.
	Tenant load.Tenant
}

// BatchItem describes one submission in a batch: the job's root task
// body plus the same per-submission options SubmitCtx takes.
type BatchItem struct {
	Fn   TaskFunc
	Opts SubmitOpts
}

// BatchResult is one batch item's outcome. Exactly one field is set:
// Job when the item was admitted, Err (the SubmitCtx error vocabulary —
// ctx.Err(), ErrDeadlineExceeded, ErrBacklogFull, ErrShed, ErrClosed, or
// a validation error) when it was not.
type BatchResult struct {
	Job *Job
	Err error
}

// Submit enqueues fn as a new job's root task and returns the job handle
// — the compatibility wrapper over SubmitCtx with the batch class, no
// deadline, and no cancellation. Under the default admission policy it
// blocks while the batch queue is full (backpressure) and returns
// ErrClosed once Close has begun; a non-blocking Config.Admit governs
// plain Submit too — the policy is the team's overload regime, so a
// RejectWhenFull or DeadlineShed team returns ErrBacklogFull rather than
// letting legacy callers block past the operator's chosen bound. Submit
// is safe for concurrent use from any goroutine *outside* the team; task
// bodies must use Worker.Spawn, not Submit — a worker blocked on a full
// admission queue cannot help drain it.
func (tm *Team) Submit(fn TaskFunc) (*Job, error) {
	return tm.SubmitCtx(context.Background(), fn, SubmitOpts{Priority: load.ClassBatch})
}

// SubmitCtx enqueues fn as a new job's root task under an admission
// contract: the submission carries a priority class and an optional
// deadline, the team's admission policy (Config.Admit) decides whether a
// full backlog means waiting, rejection, or shedding, and a wait unblocks
// promptly when ctx is cancelled or the deadline arrives. The error is
// typed: ctx.Err() on cancellation, ErrDeadlineExceeded on an expired
// deadline, ErrBacklogFull on a non-blocking rejection, ErrShed when the
// policy dropped the job, ErrClosed once Close has begun, ErrNotServing
// before Serve, and errors wrapping ErrInvalid for a malformed
// submission (nil fn, class out of range, negative tenant weight). Like
// Submit it must be called from outside the team's task bodies.
//
// It is the batch of one: the same admission pass as SubmitBatchInto over
// stack-resident slices, so a single submission allocates nothing.
func (tm *Team) SubmitCtx(ctx context.Context, fn TaskFunc, opts SubmitOpts) (*Job, error) {
	items := [1]BatchItem{{Fn: fn, Opts: opts}}
	var res [1]BatchResult
	if err := tm.SubmitBatchInto(ctx, items[:], res[:]); err != nil {
		return nil, err
	}
	return res[0].Job, res[0].Err
}

// SubmitBatchInto admits a batch of jobs in one amortized admission pass
// (see admitBatch) and writes one BatchResult per item into res,
// index-aligned with items (len(res) >= len(items); previous contents are
// overwritten), so a caller splitting one batch across teams fills
// sub-slices of one result slice. The batch-level error reports only
// conditions that fail the batch as a whole (a team that is not
// serving); per-item failures — validation, shedding, rejection, expiry,
// cancellation — land in the item's BatchResult, so partial admission is
// the normal outcome under backpressure, not an error. Items whose policy verdict allows waiting
// park (in item order) behind their class's ring when it is full, and
// the submitter blocks until workers have claimed enough of them to bring
// the rest within the class's bound, honouring ctx and each item's own
// deadline. Like SubmitCtx it must be called from outside the team's task
// bodies.
func (tm *Team) SubmitBatchInto(ctx context.Context, items []BatchItem, res []BatchResult) error {
	svc := tm.svc.Load()
	if svc == nil {
		return ErrNotServing
	}
	if ctx == nil {
		ctx = context.Background()
	}
	tm.admitBatch(ctx, svc, items, res[:len(items)])
	return nil
}

// admitStack is the batch size up to which admitBatch's per-item scratch
// lives on its stack: it covers single submissions and a sharded pool's
// dispatch chunks. Larger batches borrow it from admitScratchPool, so no
// batch size allocates once the pool is warm.
const admitStack = 16

// admitScratch is admitBatch's per-item scratch for a batch larger than
// admitStack.
type admitScratch struct {
	wait   []bool
	roots  []*Task
	frames []*Job
}

var admitScratchPool = sync.Pool{New: func() any { return new(admitScratch) }}

// size returns the scratch cut to n items, growing it first if needed.
func (s *admitScratch) size(n int) (wait []bool, roots []*Task, frames []*Job) {
	if cap(s.wait) < n {
		s.wait, s.roots, s.frames = make([]bool, n), make([]*Task, n), make([]*Job, n)
	}
	return s.wait[:n], s.roots[:0], s.frames[:n]
}

// put clears the scratch's frame and root pointers, so a pooled scratch
// pins no job frame, and returns it to the pool.
func (s *admitScratch) put() {
	clear(s.roots[:cap(s.roots)])
	clear(s.frames[:cap(s.frames)])
	admitScratchPool.Put(s)
}

// admitBatch is the admission state machine — the one implementation
// behind every Submit variant, a single submission being the batch of
// one. Its five phases pay the admission toll once per batch: one reserve
// on the service word, gauges moved once per run of same-class,
// same-tenant items, one reserving CAS per class ring, one bell ring
// (ARCHITECTURE.md, "The admission path"). The *contract* stays per job:
// the policy rules on each item, against one load-signal snapshot, and
// each outcome lands in res[i] with the typed errors SubmitCtx documents.
func (tm *Team) admitBatch(ctx context.Context, svc *service, items []BatchItem, res []BatchResult) {
	clear(res)
	var (
		waitBuf  [admitStack]bool
		rootBuf  [admitStack]*Task
		frameBuf [admitStack]*Job
	)
	wait, roots, frames := waitBuf[:], rootBuf[:0], frameBuf[:]
	if len(items) > admitStack {
		s := admitScratchPool.Get().(*admitScratch)
		defer s.put()
		wait, roots, frames = s.size(len(items))
		clear(wait)
	}

	// Phase 1: validate every item and take the policy's per-item verdict
	// — the enqueue *mode* (wait / no-wait / shed) — before any
	// accounting, from the same signals the other balancing levels
	// read. wait[i] records whether a full ring means waiting or rejection
	// for item i; admissible counts the items that survive this phase.
	// Both built-in non-shedding policies never consult the signals, so
	// plain backpressure and fail-fast admission read no signals.
	ctxErr := ctx.Err()
	var (
		sig     load.Signals
		haveSig bool
	)
	_, blockPol := tm.admit.(load.BlockWhenFull)
	_, rejectPol := tm.admit.(load.RejectWhenFull)
	admissible, shed := 0, 0
	for i := range items {
		it := &items[i]
		class := it.Opts.Priority
		if it.Fn == nil {
			res[i].Err = ErrNilFunc
			continue
		}
		if class < 0 || class >= load.NumClasses {
			res[i].Err = fmt.Errorf("%w: priority class %d outside [0, %d)", ErrInvalid, class, load.NumClasses)
			continue
		}
		if it.Opts.Tenant.Weight < 0 {
			res[i].Err = fmt.Errorf("%w: negative tenant weight %g", ErrInvalid, it.Opts.Tenant.Weight)
			continue
		}
		if ctxErr != nil {
			tm.profile.Refused(class, it.Opts.Tenant, prof.AdmitCancelled, false)
			res[i].Err = ctxErr
			continue
		}
		var remaining time.Duration
		if !it.Opts.Deadline.IsZero() {
			remaining = time.Until(it.Opts.Deadline)
			if remaining <= 0 {
				tm.profile.Refused(class, it.Opts.Tenant, prof.AdmitExpired, false)
				res[i].Err = ErrDeadlineExceeded
				continue
			}
		}
		wait[i] = !rejectPol
		if !blockPol && !rejectPol {
			if !haveSig {
				sig, haveSig = tm.Signals(), true
			}
			ring := svc.submit[class]
			switch tm.admit.Admit(load.AdmitRequest{
				Class:    class,
				Deadline: remaining,
				Queued:   ring.Len() + svc.runs[class].queued(),
				Capacity: ring.Cap(),
				Tenant:   it.Opts.Tenant,
				// The tenant gauge is raised before the enqueue (phase 3),
				// so it covers this tenant's submitters currently blocked at
				// the edge as well as its queued jobs — the footprint a
				// weighted-fair policy bounds.
				TenantQueued: int(tm.profile.TenantQueued(it.Opts.Tenant.ID)),
				Saturated:    tm.saturated(sig),
			}, sig) {
			case load.AdmitShed:
				// Provisional: a closing team reports ErrClosed, not ErrShed
				// (a caller backs off and retries on ErrShed; it stops on
				// ErrClosed), so the shed is only final, and only counted,
				// once the closed check below has passed.
				res[i].Err = ErrShed
				shed++
				continue
			case load.AdmitReject:
				wait[i] = false
			}
		}
		admissible++
	}
	if admissible == 0 && shed == 0 {
		return
	}

	// Phase 2: reserve the whole batch on the service word — the
	// authoritative closed check — and draw a contiguous id range.
	if !svc.reserve(admissible) {
		for i := range res {
			if res[i].Err == nil || res[i].Err == ErrShed {
				res[i].Err = ErrClosed
			}
		}
		return
	}
	seq := tm.jobSeq.Add(int64(admissible)) - int64(admissible)
	if shed > 0 {
		for i := range items {
			if res[i].Err == ErrShed {
				tm.profile.Refused(items[i].Opts.Priority, items[i].Opts.Tenant, prof.AdmitShed, false)
			}
		}
	}

	// Phase 3: draw the frames — one run from one pool lane — resolve the
	// tenant's ledger slot once per run of same-tenant items, and raise the
	// gauges, grouped: one Queued event per run of consecutive same-class,
	// same-tenant items (one for the whole batch when it is uniform). The
	// gauges rise before the enqueue so a blocked submitter still counts as
	// demand against this team (the signal a sharded dispatcher compares);
	// adoption, migration, and rollbackSubmit decrement them.
	admitStart := tm.profile.Now()
	var (
		classTotal [load.NumClasses]int
		prev       *Job
	)
	frames = frames[:admissible]
	lane := tm.acquireJobs(seq+1, frames)
	for i := range items {
		if res[i].Err != nil {
			continue // failed validation, shed, expired, or pre-cancelled
		}
		seq++
		j := frames[0]
		frames = frames[1:]
		j.resetForSubmit(tm, lane, seq, items[i].Fn, items[i].Opts.Priority, items[i].Opts.Tenant)
		if prev != nil && prev.tenant.ID == j.tenant.ID {
			j.ten = prev.ten
		} else {
			j.ten = tm.profile.Tenant(j.tenant)
		}
		j.submitNS = admitStart
		res[i].Job = j
		classTotal[j.class]++
		prev = j
	}
	forEachRun(res, classTotal, func(j *Job, n int) {
		tm.profile.Queued(j.class, j.ten, int64(n))
	})

	// Phase 4: each class group enters its ring with one reserving CAS;
	// the bell rings once for however many jobs landed. EnqueueBatch
	// admits a prefix of the group, so the first enq[c] class-c items (in
	// batch order) are queued and the rest fall through to phase 5.
	var enq [load.NumClasses]int
	total := 0
	for _, c := range load.ByPriority {
		if classTotal[c] == 0 || svc.runs[c].head.Load() != nil {
			continue // parked runs fill the class: its items queue behind them
		}
		roots = roots[:0]
		for i := range items {
			if j := res[i].Job; j != nil && j.class == c {
				roots = append(roots, &j.root)
			}
		}
		enq[c] = svc.submit[c].EnqueueBatch(roots)
		total += enq[c]
	}
	svc.bell.RingMany(total)
	lat := tm.profile.Now() - admitStart
	forEachRun(res, enq, func(j *Job, n int) {
		tm.profile.Admitted(j.class, j.tenant, n, lat)
	})
	if total == admissible {
		return
	}

	// Phase 5: leftovers — items whose class was full. Reject-mode items
	// roll back at once; from here on wait[i] marks the wait-mode
	// leftovers, which enter in runs (admitRun): consecutive leftovers of
	// one class and one deadline park together, in item order, under ctx
	// and the run's deadline.
	var seen [load.NumClasses]int
	for i := range items {
		j := res[i].Job
		if j == nil {
			wait[i] = false
			continue
		}
		seen[j.class]++
		if seen[j.class] <= enq[j.class] {
			wait[i] = false // queued in phase 4
		} else if !wait[i] {
			tm.rollbackSubmit(svc, j, prof.AdmitRejected)
			res[i] = BatchResult{Err: ErrBacklogFull}
		}
	}
	for lo := 0; lo < len(items); {
		if !wait[lo] {
			lo++
			continue
		}
		class, deadline := res[lo].Job.class, items[lo].Opts.Deadline
		roots = roots[:0]
		hi := lo
		for ; hi < len(items); hi++ {
			if !wait[hi] {
				continue
			}
			if res[hi].Job.class != class || !items[hi].Opts.Deadline.Equal(deadline) {
				break
			}
			roots = append(roots, &res[hi].Job.root)
		}
		n, o, err := tm.admitRun(ctx, svc, roots, deadline, admitStart)
		for ; lo < hi; lo++ {
			if !wait[lo] {
				continue
			}
			if n > 0 {
				n-- // in the published prefix
				continue
			}
			tm.rollbackSubmit(svc, res[lo].Job, o)
			res[lo] = BatchResult{Err: err}
		}
	}
}

// admitRun publishes a run of already-reserved wait-mode jobs of one
// class, in order: what fits enters the class ring, unless the class has
// parked runs to queue behind, and the rest is parked once, where it lies
// (runQueue). The submitter blocks once, until its run is within the
// class's bound (runQueue.release), ctx or deadline; the reclaim's Swap
// hands back exactly the roots no worker claimed, so each job either runs
// or rolls back. It returns how many roots were published and, short of
// all of them, the outcome and typed error the caller rolls the rest back
// with. An already-cancelled ctx fails fast, so the rest of a batch's runs
// roll back without blocking.
func (tm *Team) admitRun(ctx context.Context, svc *service, roots []*Task, deadline time.Time, admitStart int64) (int, prof.AdmitOutcome, error) {
	if err := ctx.Err(); err != nil {
		return 0, prof.AdmitCancelled, err
	}
	class := roots[0].job.class
	q := &svc.runs[class]
	n, o, err := 0, prof.AdmitAdmitted, error(nil)
	if q.head.Load() == nil {
		n = q.ring.EnqueueBatch(roots)
		svc.bell.RingMany(n)
	}
	if n < len(roots) {
		var timeout <-chan time.Time
		if !deadline.IsZero() {
			timer := time.NewTimer(time.Until(deadline))
			defer timer.Stop()
			timeout = timer.C
		}
		r := q.park(roots[n:])
		svc.bell.RingMany(len(r.roots))
		select {
		case <-r.wake:
		case <-ctx.Done():
			o, err = prof.AdmitCancelled, ctx.Err()
		case <-timeout:
			o, err = prof.AdmitExpired, ErrDeadlineExceeded
		}
		claimed := len(r.roots)
		if err != nil {
			if k := int(r.cur.Swap(int64(claimed))); k < claimed {
				q.unlink(r)
				claimed = k
			} else {
				o, err = prof.AdmitAdmitted, nil // the last claim beat the reclaim
			}
		}
		n += claimed
	}
	// One clock read, one Admitted per run of same-tenant roots.
	lat := tm.profile.Now() - admitStart
	for in := roots[:n]; len(in) > 0; {
		t, k := in[0].job.tenant, 1
		for k < len(in) && in[k].job.tenant.ID == t.ID {
			k++
		}
		tm.profile.Admitted(class, t, k, lat)
		in = in[k:]
	}
	return n, o, err
}

// parkedRun is the suffix of a wait-mode run its class ring had no room
// for, claimed in order with one CAS per root on cur. Never reused, so a
// stale pointer can only find it exhausted.
type parkedRun struct {
	roots    []*Task
	wake     chan struct{} // closed by wakeOnce
	released bool          // wake is closed; under runQueue.mu
	_        [3]uint64
	cur      atomic.Int64
	_        [7]uint64
}

// runQueue is one class's FIFO of parked runs, served after its ring. mu
// orders park, unlink and release; head mirrors runs[0] for lock-free
// claims.
type runQueue struct {
	ring  *intake.Ring[*Task] // the class ring, which admitBatch leaves alone while runs exist
	head  atomic.Pointer[parkedRun]
	mu    sync.Mutex
	runs  []*parkedRun
	parks int // runs ever published, under mu
}

// park publishes a copy of roots as a parked run behind the class's others.
func (q *runQueue) park(roots []*Task) *parkedRun {
	r := &parkedRun{roots: slices.Clone(roots), wake: make(chan struct{})}
	q.mu.Lock()
	q.parks++
	q.relink(append(q.runs, r))
	q.mu.Unlock()
	return r
}

// unlink removes r once cur is at its end — called by whichever of the
// last claim and the reclaim put it there — and wakes its submitter if
// release has not: a racing admitBatch can refill the ring in front of it.
// It reports whether it woke a submitter.
func (q *runQueue) unlink(r *parkedRun) bool {
	q.mu.Lock()
	woke := r.wakeOnce()
	woke = q.relink(slices.DeleteFunc(q.runs, func(x *parkedRun) bool { return x == r })) || woke
	q.mu.Unlock()
	return woke
}

// relink installs runs and their head, then releases. Under q.mu.
func (q *runQueue) relink(runs []*parkedRun) bool {
	q.runs = runs
	var h *parkedRun
	if len(runs) > 0 {
		h = runs[0]
	}
	q.head.Store(h)
	return q.release()
}

// release wakes, oldest first, every run's submitter once the ring plus
// the unclaimed roots up to and including the run's last fit the ring's
// capacity: a submitter waits for room, never for its jobs to start, so
// jobs that wait on their submitter's next call cannot deadlock the team.
// It reports whether it woke a submitter. Under q.mu.
func (q *runQueue) release() (woke bool) {
	acc := q.ring.Len()
	for _, r := range q.runs {
		if acc += len(r.roots) - int(r.cur.Load()); acc > q.ring.Cap() {
			return woke
		}
		woke = r.wakeOnce() || woke
	}
	return woke
}

// wakeOnce closes r.wake the first time it is called, and reports whether
// this call did. Under runQueue.mu.
func (r *parkedRun) wakeOnce() bool {
	if r.released {
		return false
	}
	r.released = true
	close(r.wake)
	return true
}

// dequeued is release after a ring dequeue or a claim, skipped without the
// lock while the head run alone exceeds the bound.
func (q *runQueue) dequeued() bool {
	if r := q.head.Load(); r == nil || q.ring.Len()+len(r.roots)-int(r.cur.Load()) > q.ring.Cap() {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.release()
}

// claim takes the oldest parked run's next root; nil when there is none
// or the oldest is exhausted but not yet unlinked. woke reports that the
// claim released a submitter.
func (q *runQueue) claim() (t *Task, woke bool) {
	r := q.head.Load()
	if r == nil {
		return nil, false
	}
	for n := int64(len(r.roots)); ; {
		i := r.cur.Load()
		if i >= n {
			return nil, false
		}
		if r.cur.CompareAndSwap(i, i+1) {
			if i+1 == n {
				woke = q.unlink(r)
			} else {
				woke = q.dequeued()
			}
			return r.roots[i], woke
		}
	}
}

// queued returns how many parked roots no worker has claimed yet.
func (q *runQueue) queued() int {
	if q.head.Load() == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, r := range q.runs {
		n += len(r.roots) - int(r.cur.Load())
	}
	return n
}

// forEachRun calls fn once per run of consecutive same-class, same-tenant
// items, with the run's first job and its length, over the items that
// hold a job frame and are among the first limit[c] such items of their
// class c (in batch order) — every framed item when limit is the
// per-class frame count, the ones that entered the ring when it is phase
// 4's enqueue count. Callers batching per class and tenant get O(1)
// profile traffic; mixed batches degrade to per-item. It reads only the
// fields fixed for the job's generation, so it may run after the jobs
// are published; fn may read Job.ten only before that (a migration
// rewrites it).
func forEachRun(res []BatchResult, limit [load.NumClasses]int, fn func(first *Job, n int)) {
	var (
		seen  [load.NumClasses]int
		first *Job
	)
	runN := 0
	for i := range res {
		j := res[i].Job
		if j == nil {
			continue
		}
		seen[j.class]++
		if seen[j.class] > limit[j.class] {
			continue
		}
		if runN > 0 && (j.class != first.class || j.tenant.ID != first.tenant.ID) {
			fn(first, runN)
			runN = 0
		}
		if runN == 0 {
			first = j
		}
		runN++
	}
	if runN > 0 {
		fn(first, runN)
	}
}

// rollbackSubmit undoes the admission accounting of a job whose enqueue
// did not happen (rejected, cancelled, or expired while waiting) — the
// queue-depth gauges and the service's reservation, exactly once (see
// admitRun) — and recycles its frame.
func (tm *Team) rollbackSubmit(svc *service, j *Job, o prof.AdmitOutcome) {
	tm.profile.Refused(j.class, j.tenant, o, true)
	svc.jobDone()
	// A tenant-tracking policy granted this submission at Admit time;
	// tell it the work left without running (serviceNS 0).
	if ob, ok := tm.admit.(load.TenantObserver); ok {
		ob.ObserveComplete(j.tenant, 0)
	}
	j.recycle(jobInFlight)
}

// saturated is the admission edge's saturation verdict: the team is
// saturated once queued plus running work reaches its capacity.
// Deadline-aware shedding engages only then.
func (tm *Team) saturated(sig load.Signals) bool {
	return sig.Load() >= 1
}
