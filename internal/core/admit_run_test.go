package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/prof"
)

// The run path (admitBatch phase 5, admitRun): a batch wider than its
// class ring enters in runs: what fits goes into the ring, the rest is
// parked once for the workers to claim where it lies.
// These tests use one worker where they assert order — adoption is then
// the ring's FIFO — and every one of them ends with the ledgers at rest:
// gauges at zero, nothing active, every frame back in the pool.

// assertAtRest checks that nothing of a finished scenario is still
// counted anywhere: the team's in-flight word, the queue gauges, and the
// frame pool — jobs holds every handle the scenario was given, and once
// they are released a batch as wide as everything the team ever drew must
// find its frames pooled (one-worker teams only: one pool lane).
func assertAtRest(t *testing.T, tm *Team, tenants []int, jobs []*Job) {
	t.Helper()
	waitFor(t, func() bool { return tm.ActiveJobs() == 0 })
	p := tm.Profile()
	if d := p.QueueDepth(); d != 0 {
		t.Fatalf("NJOBS_QUEUED = %d at rest, want 0", d)
	}
	for c := 0; c < int(load.NumClasses); c++ {
		if q := p.ClassQueued(c); q != 0 {
			t.Fatalf("class %d queued gauge = %d at rest, want 0", c, q)
		}
	}
	for _, id := range tenants {
		if q := p.TenantQueued(id); q != 0 {
			t.Fatalf("tenant %d queued gauge = %d at rest, want 0", id, q)
		}
	}
	for _, j := range jobs {
		j.Release()
	}
	drawn := tm.jobPool.Stats().FreshAllocs
	items := make([]BatchItem, drawn)
	for i := range items {
		items[i] = BatchItem{Fn: func(*Worker) {}}
	}
	res, err := tm.SubmitBatchCtx(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("pool check item %d: %v", i, r.Err)
		}
		if err := r.Job.Wait(); err != nil {
			t.Fatal(err)
		}
		r.Job.Release()
	}
	if now := tm.jobPool.Stats().FreshAllocs; now != drawn {
		t.Fatalf("a %d-wide batch drew %d fresh frames: that many never came back to the pool", drawn, now-drawn)
	}
}

// TestAdmitRunOverflow: 64 blocking items into a ring of 2 and of 8 are
// all admitted, exactly once, in order.
func TestAdmitRunOverflow(t *testing.T) {
	const n, tenant = 64, 7
	for _, backlog := range []int{2, 8} {
		t.Run(fmt.Sprintf("backlog%d", backlog), func(t *testing.T) {
			tm := admitTeam(t, 1, backlog, nil)
			defer tm.Close()
			var order []int // the one worker's
			items := make([]BatchItem, n)
			for i := range items {
				items[i] = BatchItem{
					Fn:   func(*Worker) { order = append(order, i) },
					Opts: SubmitOpts{Tenant: load.Tenant{ID: tenant}},
				}
			}
			res, err := tm.SubmitBatchCtx(context.Background(), items)
			if err != nil {
				t.Fatal(err)
			}
			jobs := make([]*Job, 0, n)
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("item %d: %v", i, r.Err)
				}
				if err := r.Job.Wait(); err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, r.Job)
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			if !slices.Equal(order, want) {
				t.Fatalf("ran in order %v, want 0..%d once each", order, n-1)
			}
			p := tm.Profile()
			if got := p.AdmitCount(int(load.ClassBatch), prof.AdmitAdmitted); got != n {
				t.Fatalf("class ADMIT = %d, want %d", got, n)
			}
			if got := p.TenantAdmitCount(tenant, prof.AdmitAdmitted); got != n {
				t.Fatalf("tenant ADMIT = %d, want %d", got, n)
			}
			assertAtRest(t, tm, []int{tenant}, jobs)
		})
	}
}

// TestAdmitRunInterrupted: ctx cancelled, or the run's deadline passing,
// while the run is parked leaves what entered the ring admitted — it
// completes — and rolls the unclaimed suffix back exactly once with the
// typed error.
func TestAdmitRunInterrupted(t *testing.T) {
	const n, backlog = 64, 2
	for _, tc := range []struct {
		name    string
		outcome prof.AdmitOutcome
		wantErr error
	}{
		{"cancel", prof.AdmitCancelled, context.Canceled},
		{"deadline", prof.AdmitExpired, ErrDeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tm := admitTeam(t, 1, backlog, nil)
			defer tm.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var opts SubmitOpts
			if tc.outcome == prof.AdmitExpired {
				opts.Deadline = time.Now().Add(100 * time.Millisecond)
			}
			// Item 0 wedges the worker, so the run parks with the ring full
			// behind it and nothing is claimed: the ring holds the prefix,
			// backlog items, or backlog+1 when the worker adopted item 0
			// before the run's own EnqueueBatch.
			gate := make(chan struct{})
			var ran atomic.Int64
			items := make([]BatchItem, n)
			for i := range items {
				items[i] = BatchItem{Fn: func(*Worker) { ran.Add(1) }, Opts: opts}
			}
			items[0].Fn = func(*Worker) { ran.Add(1); <-gate }
			done := make(chan []BatchResult, 1)
			go func() {
				res, err := tm.SubmitBatchCtx(ctx, items)
				if err != nil {
					t.Error(err)
				}
				done <- res
			}()
			p := tm.Profile()
			admitted := func() uint64 { return p.AdmitCount(int(load.ClassBatch), prof.AdmitAdmitted) }
			waitFor(t, func() bool { return ran.Load() == 1 && parkedRoots(tm, load.ClassBatch) > 0 })
			if tc.outcome == prof.AdmitCancelled {
				cancel()
			}
			res := <-done
			prefix := 0
			for prefix < n && res[prefix].Err == nil {
				prefix++
			}
			if prefix < backlog || prefix > backlog+1 || uint64(prefix) != admitted() {
				t.Fatalf("published prefix is %d items with %d admitted, want %d or %d, all admitted", prefix, admitted(), backlog, backlog+1)
			}
			for i := prefix; i < n; i++ {
				if res[i].Job != nil || !errors.Is(res[i].Err, tc.wantErr) {
					t.Fatalf("suffix item %d = (%v, %v), want (nil, %v)", i, res[i].Job, res[i].Err, tc.wantErr)
				}
			}
			if got := p.AdmitCount(int(load.ClassBatch), tc.outcome); got != uint64(n-prefix) {
				t.Fatalf("%v count = %d, want %d", tc.outcome, got, n-prefix)
			}
			if got := tm.ActiveJobs(); got != int64(prefix) {
				t.Fatalf("ActiveJobs = %d after the rollback, want the prefix's %d", got, prefix)
			}
			close(gate)
			jobs := make([]*Job, 0, prefix)
			for _, r := range res[:prefix] {
				if err := r.Job.Wait(); err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, r.Job)
			}
			if got := ran.Load(); got != int64(prefix) {
				t.Fatalf("%d bodies ran, want the prefix's %d", got, prefix)
			}
			if got := admitted(); got != uint64(prefix) {
				t.Fatalf("class ADMIT = %d, want %d", got, prefix)
			}
			assertAtRest(t, tm, []int{0}, jobs)
		})
	}
}

// parkedRoots returns how many roots of class c wait in parked runs.
func parkedRoots(tm *Team, c load.Class) int { return tm.svc.Load().runs[c].queued() }

// rejectTenant is block admission with one tenant in reject mode.
type rejectTenant int

func (r rejectTenant) Admit(req load.AdmitRequest, _ load.Signals) load.AdmitDecision {
	if req.Tenant.ID == int(r) {
		return load.AdmitReject
	}
	return load.AdmitWait
}

// TestAdmitRunSplits: a batch mixing classes, tenants, deadlines and
// reject-mode items splits into the right runs — every wait-mode item is
// admitted exactly once, each class runs in item order, the reject-mode
// leftovers get ErrBacklogFull, and the counters add up per class and
// per tenant.
func TestAdmitRunSplits(t *testing.T) {
	const backlog, rejected = 2, 99
	tm := admitTeam(t, 1, backlog, rejectTenant(rejected))
	defer tm.Close()
	// Wedge the worker first: every ring then takes exactly backlog items
	// in phase 4, and which items are leftovers is fixed.
	gate := make(chan struct{})
	started := make(chan struct{})
	wedge, err := tm.Submit(func(*Worker) { close(started); <-gate })
	if err != nil {
		t.Fatal(err)
	}
	<-started

	far := time.Now().Add(time.Hour)
	type shape struct {
		n      int
		class  load.Class
		tenant int
		dl     time.Time
	}
	var (
		order [load.NumClasses][]int // the one worker's
		items []BatchItem
	)
	for _, s := range []shape{
		{6, load.ClassBatch, 1, time.Time{}},
		{1, load.ClassBatch, rejected, time.Time{}}, // leftover: rejected, splits nothing
		{3, load.ClassBatch, 2, time.Time{}},        // same run as the six above
		{4, load.ClassInteractive, 1, time.Time{}},
		{3, load.ClassBatch, 1, far}, // a deadline of its own: its own run
		{2, load.ClassBatch, 1, time.Time{}},
		{1, load.ClassInteractive, rejected, time.Time{}},
		{4, load.ClassBackground, 3, time.Time{}},
	} {
		for k := 0; k < s.n; k++ {
			i := len(items)
			items = append(items, BatchItem{
				Fn:   func(*Worker) { order[s.class] = append(order[s.class], i) },
				Opts: SubmitOpts{Priority: s.class, Deadline: s.dl, Tenant: load.Tenant{ID: s.tenant}},
			})
		}
	}
	done := make(chan []BatchResult, 1)
	go func() {
		res, err := tm.SubmitBatchCtx(context.Background(), items)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	// The reject-mode leftovers roll back before the first run blocks.
	p := tm.Profile()
	waitFor(t, func() bool {
		return p.AdmitCount(int(load.ClassBatch), prof.AdmitRejected) == 1 &&
			p.AdmitCount(int(load.ClassInteractive), prof.AdmitRejected) == 1
	})
	close(gate)
	res := <-done

	var (
		wantOrder  [load.NumClasses][]int
		wantTenant = map[int]uint64{}
		jobs       = []*Job{wedge}
	)
	for i, r := range res {
		o := items[i].Opts
		if o.Tenant.ID == rejected {
			if r.Job != nil || !errors.Is(r.Err, ErrBacklogFull) {
				t.Fatalf("reject-mode item %d = (%v, %v), want ErrBacklogFull", i, r.Job, r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("wait-mode item %d: %v", i, r.Err)
		}
		if err := r.Job.Wait(); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, r.Job)
		wantOrder[o.Priority] = append(wantOrder[o.Priority], i)
		wantTenant[o.Tenant.ID]++
	}
	if err := wedge.Wait(); err != nil {
		t.Fatal(err)
	}
	for c := range order {
		if !slices.Equal(order[c], wantOrder[c]) {
			t.Fatalf("class %d ran items %v, want %v", c, order[c], wantOrder[c])
		}
		want := uint64(len(wantOrder[c]))
		if load.Class(c) == load.ClassBatch {
			want++ // the wedge
		}
		if got := p.AdmitCount(c, prof.AdmitAdmitted); got != want {
			t.Fatalf("class %d ADMIT = %d, want %d", c, got, want)
		}
	}
	wantTenant[0]++ // the wedge
	for id, want := range wantTenant {
		if got := p.TenantAdmitCount(id, prof.AdmitAdmitted); got != want {
			t.Fatalf("tenant %d ADMIT = %d, want %d", id, got, want)
		}
	}
	if got := p.TenantAdmitCount(rejected, prof.AdmitRejected); got != 2 {
		t.Fatalf("tenant %d REJECT = %d, want 2", rejected, got)
	}
	assertAtRest(t, tm, []int{0, 1, 2, 3, rejected}, jobs)
}

// TestAdmitRunConcurrent: several submitters push overflowing batches at
// two workers at once, sharing the class's one gate. Every job runs
// exactly once and the ledgers come back to rest; a lost gate wake hangs
// into the watchdog, since a blocked run has nothing else to wake it.
func TestAdmitRunConcurrent(t *testing.T) {
	const submitters, rounds, n = 4, 40, 64
	tm := admitTeam(t, 2, 4, nil)
	var ran [submitters * n]atomic.Int32
	var progress atomic.Int64
	done := make(chan error, 1)
	go func() {
		var wg sync.WaitGroup
		errs := make(chan error, submitters)
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				items := make([]BatchItem, n)
				for i := range items {
					items[i] = BatchItem{Fn: func(*Worker) { ran[s*n+i].Add(1) }, Opts: SubmitOpts{Tenant: load.Tenant{ID: s}}}
				}
				res := make([]BatchResult, n)
				for r := 0; r < rounds; r++ {
					if err := tm.SubmitBatchInto(context.Background(), items, res); err != nil {
						errs <- err
						return
					}
					for i := range res {
						if res[i].Err != nil {
							errs <- fmt.Errorf("submitter %d round %d item %d: %v", s, r, i, res[i].Err)
							return
						}
						if err := res[i].Job.Wait(); err != nil {
							errs <- err
							return
						}
						res[i].Job.Release()
					}
					progress.Add(1)
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			done <- err
		default:
			done <- nil
		}
	}()
	watchProgress(t, &progress, done)
	for i := range ran {
		if got := ran[i].Load(); got != rounds {
			t.Fatalf("body %d ran %d times, want %d", i, got, rounds)
		}
	}
	p := tm.Profile()
	if got := p.AdmitCount(int(load.ClassBatch), prof.AdmitAdmitted); got != submitters*rounds*n {
		t.Fatalf("class ADMIT = %d, want %d", got, submitters*rounds*n)
	}
	waitFor(t, func() bool { return tm.ActiveJobs() == 0 })
	if d := p.QueueDepth(); d != 0 {
		t.Fatalf("NJOBS_QUEUED = %d at rest, want 0", d)
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParkedRunWaitsForRoom: a parked run's submitter waits for room,
// not for its jobs to start. Every worker wedges in a job of the batch, so
// nothing parked is ever claimed while the gate is shut; the batch must
// still return once what it left queued fits the ring, and a further
// submission, which no longer fits, must block until a worker frees a
// slot.
func TestParkedRunWaitsForRoom(t *testing.T) {
	const workers, backlog = 2, 2
	for round := 0; round < 20; round++ {
		tm := admitTeam(t, workers, backlog, nil)
		gate := make(chan struct{})
		items := make([]BatchItem, workers+backlog)
		for i := range items {
			items[i] = BatchItem{Fn: func(*Worker) { <-gate }}
		}
		res, err := tm.SubmitBatchCtx(context.Background(), items)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("round %d item %d: %v", round, i, r.Err)
			}
		}
		late := make(chan *Job)
		go func() {
			j, err := tm.Submit(func(*Worker) {})
			if err != nil {
				t.Error(err)
			}
			late <- j
		}()
		select {
		case <-late:
			t.Fatalf("round %d: a submission beyond workers+backlog returned with every worker wedged", round)
		case <-time.After(5 * time.Millisecond):
		}
		close(gate)
		jobs := []*Job{<-late}
		for _, r := range res {
			jobs = append(jobs, r.Job)
		}
		for _, j := range jobs {
			if err := j.Wait(); err != nil {
				t.Fatal(err)
			}
			j.Release()
		}
		if err := tm.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeHandOff is the parked run's liveness and its cost on one
// processor, with the safety-net sweep off: 64-job batches into the
// default ring of 8 park their overflow once per batch — the submitter
// blocks once, not once per ring refill — and the feed completes only if
// the claim that brings each run within the ring's bound wakes its
// submitter. The workers' idle polls stay a few per job.
func TestServeHandOff(t *testing.T) {
	stretchIdleSweep(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds, n = 100, 64
	tm := serviceTeam(t, "xgomptb", 2) // default backlog: 8, an eighth of a batch
	var ran, progress atomic.Int64
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{Fn: func(*Worker) { ran.Add(1) }}
	}
	done := make(chan error, 1)
	go func() {
		res := make([]BatchResult, n)
		for r := 0; r < rounds; r++ {
			if err := tm.SubmitBatchInto(context.Background(), items, res); err != nil {
				done <- err
				return
			}
			for i := range res {
				if res[i].Err != nil {
					done <- res[i].Err
					return
				}
				if err := res[i].Job.Wait(); err != nil {
					done <- err
					return
				}
				res[i].Job.Release()
			}
			progress.Add(1)
		}
		done <- tm.Close()
	}()
	watchProgress(t, &progress, done)
	if got := ran.Load(); got != rounds*n {
		t.Fatalf("ran %d jobs, want %d", got, rounds*n)
	}
	q := &tm.svc.Load().runs[load.ClassBatch]
	q.mu.Lock()
	parks := q.parks
	q.mu.Unlock()
	p := tm.Profile()
	if got := p.Sum(prof.CntSweepWakes); got != 0 {
		t.Fatalf("%d sweep wakes with the sweep switched off", got)
	}
	polls := p.Sum(prof.CntIdlePolls)
	t.Logf("%d submitter parks over %d batches; %d idle polls over %d jobs (%.2f a job), %d worker parks",
		parks, rounds, polls, rounds*n, float64(polls)/(rounds*n), p.Sum(prof.CntIdleParks))
	if parks == 0 || parks > rounds {
		t.Fatalf("%d submitter parks over %d batches, want between 1 and one a batch", parks, rounds)
	}
	if polls > 4*rounds*n {
		t.Fatalf("%d idle polls over %d jobs: more than 4 a job, the workers are spinning through the hand-off", polls, rounds*n)
	}
}

// TestParkedRunClaimVsCancel races the claim of parked roots against
// their submitters' reclaim: batches into rings of 1 and 2, so nearly
// every item parks, while 2 or 8 workers claim and each submitter's ctx
// is cancelled, or its deadline passes, at a random point. Every item
// must either run once and never roll back, or roll back once with its
// typed error and never run, and the ledgers must come back to rest. A
// reclaim written as Load then Store instead of Swap hands a root both to
// the worker that claimed it in between and to the rollback.
func TestParkedRunClaimVsCancel(t *testing.T) {
	rounds := 20
	if raceEnabled {
		rounds = 120
	}
	for _, procs := range []int{1, 2, 8} {
		for _, backlog := range []int{1, 2} {
			for _, workers := range []int{2, 8} {
				t.Run(fmt.Sprintf("procs%d/backlog%d/workers%d", procs, backlog, workers), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					claimVsCancel(t, workers, backlog, rounds)
				})
			}
		}
	}
}

func claimVsCancel(t *testing.T, workers, backlog, rounds int) {
	const submitters, n = 4, 96
	tm := admitTeam(t, workers, backlog, nil)
	var (
		ran                [submitters][]atomic.Int32
		admitted, rolled   atomic.Int64
		cancelled, expired atomic.Int64
	)
	for s := range ran {
		ran[s] = make([]atomic.Int32, rounds*n)
	}
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewPCG(uint64(s), uint64(workers*10+backlog)))
			items := make([]BatchItem, n)
			res := make([]BatchResult, n)
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.WithCancel(context.Background())
				// Half the rounds cancel from inside one of their own jobs,
				// so the reclaim lands while the other workers are mid-claim
				// on the same run; a sixth neither cancel nor expire, so only
				// the workers' claims can wake the submitter.
				var dl time.Time
				stop := -1
				switch rnd.IntN(6) {
				case 0:
					dl = time.Now().Add(time.Duration(rnd.IntN(60)) * time.Microsecond)
				case 1:
					time.AfterFunc(time.Duration(rnd.IntN(60))*time.Microsecond, cancel)
				case 2, 3, 4:
					stop = rnd.IntN(n / 2)
				}
				for i := range items {
					cell := &ran[s][r*n+i]
					fn := func(*Worker) { cell.Add(1) }
					if i == stop {
						fn = func(*Worker) { cell.Add(1); cancel() }
					}
					items[i] = BatchItem{Fn: fn, Opts: SubmitOpts{Deadline: dl}}
				}
				if err := tm.SubmitBatchInto(ctx, items, res); err != nil {
					errs <- err
					cancel()
					return
				}
				for i := range res {
					switch err := res[i].Err; {
					case err == nil:
						admitted.Add(1)
						if err := res[i].Job.Wait(); err != nil {
							errs <- err
						}
						res[i].Job.Release()
					case errors.Is(err, context.Canceled) && dl.IsZero():
						rolled.Add(1)
						cancelled.Add(1)
					case errors.Is(err, ErrDeadlineExceeded) && !dl.IsZero():
						rolled.Add(1)
						expired.Add(1)
					default:
						errs <- fmt.Errorf("submitter %d round %d item %d: %v", s, r, i, err)
					}
				}
				cancel()
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("a submitter never returned: a parked run's wake was lost")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return tm.ActiveJobs() == 0 })
	// Each item ran exactly when it was admitted: a root both claimed and
	// rolled back either runs with an error result or runs twice.
	var runs int64
	for s := range ran {
		for i := range ran[s] {
			switch k := ran[s][i].Load(); k {
			case 0:
			case 1:
				runs++
			default:
				t.Fatalf("submitter %d item %d ran %d times", s, i, k)
			}
		}
	}
	if runs != admitted.Load() {
		t.Fatalf("%d bodies ran, %d items admitted (%d rolled back)", runs, admitted.Load(), rolled.Load())
	}
	p := tm.Profile()
	c := int(load.ClassBatch)
	if got := p.AdmitCount(c, prof.AdmitAdmitted); got != uint64(admitted.Load()) {
		t.Fatalf("ADMIT = %d, want %d", got, admitted.Load())
	}
	if got := p.AdmitCount(c, prof.AdmitCancelled); got != uint64(cancelled.Load()) {
		t.Fatalf("CANCELLED = %d, want %d", got, cancelled.Load())
	}
	if got := p.AdmitCount(c, prof.AdmitExpired); got != uint64(expired.Load()) {
		t.Fatalf("EXPIRED = %d, want %d", got, expired.Load())
	}
	if d, q := p.QueueDepth(), p.ClassQueued(c); d != 0 || q != 0 {
		t.Fatalf("NJOBS_QUEUED = %d, class queued = %d at rest, want 0", d, q)
	}
	if q := parkedRoots(tm, load.ClassBatch); q != 0 {
		t.Fatalf("%d roots still parked at rest", q)
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d admitted, %d cancelled, %d expired", admitted.Load(), cancelled.Load(), expired.Load())
}
