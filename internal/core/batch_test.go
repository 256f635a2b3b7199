package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/prof"
)

// submitBatch admits items on tm and returns their results.
func submitBatch(ctx context.Context, tm *Team, items []BatchItem) ([]BatchResult, error) {
	res := make([]BatchResult, len(items))
	if err := tm.SubmitBatchInto(ctx, items, res); err != nil {
		return nil, err
	}
	return res, nil
}

// batchOf wraps fns as batch-class items.
func batchOf(fns []TaskFunc) []BatchItem {
	items := make([]BatchItem, len(fns))
	for i, fn := range fns {
		items[i] = BatchItem{Fn: fn}
	}
	return items
}

// TestSubmitBatchBasic: a whole batch admits in one pass, every job runs,
// and after the drain the admission gauges are back to zero.
func TestSubmitBatchBasic(t *testing.T) {
	tm := admitTeam(t, 2, 64, nil)
	defer tm.Close()
	const n = 32
	var ran atomic.Int64
	fns := make([]TaskFunc, n)
	for i := range fns {
		fns[i] = func(*Worker) { ran.Add(1) }
	}
	res, err := submitBatch(context.Background(), tm, batchOf(fns))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("len(res) = %d, want %d", len(res), n)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if err := r.Job.Wait(); err != nil {
			t.Fatalf("item %d Wait: %v", i, err)
		}
		r.Job.Release()
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d of %d bodies", got, n)
	}
	waitFor(t, func() bool { return tm.QueueDepth() == 0 })
	if q := tm.Profile().ClassQueued(int(load.ClassBatch)); q != 0 {
		t.Fatalf("class gauge %d after drain, want 0", q)
	}
	if a := tm.ActiveJobs(); a != 0 {
		t.Fatalf("ActiveJobs = %d after drain, want 0", a)
	}
}

// TestSubmitBatchMixedClasses: one batch carrying all three classes lands
// each item in its own class ring and per-class accounting.
func TestSubmitBatchMixedClasses(t *testing.T) {
	tm := admitTeam(t, 2, 16, nil)
	defer tm.Close()
	classes := []load.Class{load.ClassInteractive, load.ClassBatch, load.ClassBackground}
	items := make([]BatchItem, 12)
	for i := range items {
		items[i] = BatchItem{
			Fn:   func(*Worker) {},
			Opts: SubmitOpts{Priority: classes[i%3], Tenant: load.Tenant{ID: i % 2, Weight: 1}},
		}
	}
	res, err := submitBatch(context.Background(), tm, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if got := r.Job.Class(); got != classes[i%3] {
			t.Fatalf("item %d class %v, want %v", i, got, classes[i%3])
		}
		if err := r.Job.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	p := tm.Profile()
	for _, c := range classes {
		if got := p.AdmitCount(int(c), prof.AdmitAdmitted); got != 4 {
			t.Fatalf("class %v admitted %d, want 4", c, got)
		}
	}
	for id := 0; id < 2; id++ {
		if got := p.Tenants()[id].Counts[prof.AdmitAdmitted]; got != 6 {
			t.Fatalf("tenant %d admitted %d, want 6", id, got)
		}
	}
}

// TestSubmitBatchPartialReject: under RejectWhenFull a batch larger than
// the backlog admits exactly the ring's free space and rejects the rest
// with ErrBacklogFull, leaving the accounting consistent.
func TestSubmitBatchPartialReject(t *testing.T) {
	const workers, backlog = 2, 4
	tm := admitTeam(t, workers, backlog, load.RejectWhenFull{})
	defer tm.Close()
	gate := make(chan struct{})
	var started atomic.Int64
	for i := 0; i < workers; i++ {
		if _, err := tm.Submit(func(*Worker) { started.Add(1); <-gate }); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return started.Load() == int64(workers) })

	items := make([]BatchItem, backlog+3)
	for i := range items {
		items[i] = BatchItem{Fn: func(*Worker) {}}
	}
	res, err := submitBatch(context.Background(), tm, items)
	if err != nil {
		t.Fatal(err)
	}
	admitted, rejected := 0, 0
	for _, r := range res {
		switch {
		case r.Err == nil:
			admitted++
		case errors.Is(r.Err, ErrBacklogFull):
			rejected++
		default:
			t.Fatalf("unexpected error %v", r.Err)
		}
	}
	if admitted != backlog || rejected != 3 {
		t.Fatalf("admitted %d rejected %d, want %d and 3", admitted, rejected, backlog)
	}
	close(gate)
	for _, r := range res {
		if r.Err == nil {
			if err := r.Job.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, func() bool { return tm.ActiveJobs() == 0 })
	if d := tm.QueueDepth(); d != 0 {
		t.Fatalf("NJOBS_QUEUED = %d after drain, want 0", d)
	}
}

// TestSubmitBatchCtxCancelMidBatch: a batch whose tail is blocked on a
// full ring unblocks on cancellation, and every blocked item's
// accounting — svc.active and the gauges — rolls back exactly once
// (Close would hang forever on a leaked active count, and a double
// rollback would drive it negative, tripping the <0 check here).
func TestSubmitBatchCtxCancelMidBatch(t *testing.T) {
	const workers, backlog = 2, 2
	tm := admitTeam(t, workers, backlog, nil)
	gate := make(chan struct{})
	occupy(t, tm, workers, backlog, gate)

	ctx, cancel := context.WithCancel(context.Background())
	items := make([]BatchItem, 5) // all beyond the full ring: every item blocks
	for i := range items {
		items[i] = BatchItem{Fn: func(*Worker) {}}
	}
	type out struct {
		res []BatchResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := submitBatch(ctx, tm, items)
		done <- out{res, err}
	}()
	// Let the batch reach its blocked tail, then cancel.
	waitFor(t, func() bool { return tm.ActiveJobs() >= int64(workers+backlog+len(items)) })
	cancel()
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	cancelled := 0
	for _, r := range o.res {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled != len(items) {
		t.Fatalf("%d items cancelled, want %d", cancelled, len(items))
	}
	// Exactly-once rollback: the remaining active jobs are precisely the
	// occupying ones, and the queue gauges hold only the backlog fill.
	waitFor(t, func() bool { return tm.ActiveJobs() == int64(workers+backlog) })
	if d := tm.QueueDepth(); d != int64(backlog) {
		t.Fatalf("NJOBS_QUEUED = %d after rollback, want %d", d, backlog)
	}
	if a := tm.ActiveJobs(); a < 0 {
		t.Fatalf("ActiveJobs = %d: rollback ran more than once", a)
	}
	close(gate)
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchValidation: invalid items fail individually without
// sinking the valid ones around them.
func TestSubmitBatchValidation(t *testing.T) {
	tm := admitTeam(t, 2, 8, nil)
	defer tm.Close()
	items := []BatchItem{
		{Fn: func(*Worker) {}},
		{Fn: nil},
		{Fn: func(*Worker) {}, Opts: SubmitOpts{Priority: load.Class(99)}},
		{Fn: func(*Worker) {}, Opts: SubmitOpts{Tenant: load.Tenant{ID: 1, Weight: -1}}},
		{Fn: func(*Worker) {}, Opts: SubmitOpts{Deadline: time.Now().Add(-time.Second)}},
		{Fn: func(*Worker) {}},
	}
	res, err := submitBatch(context.Background(), tm, items)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5} {
		if res[i].Err != nil {
			t.Fatalf("valid item %d failed: %v", i, res[i].Err)
		}
		if err := res[i].Job.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{1, 2, 3} {
		if res[i].Err == nil {
			t.Fatalf("invalid item %d admitted", i)
		}
	}
	if !errors.Is(res[4].Err, ErrDeadlineExceeded) {
		t.Fatalf("expired item error %v, want ErrDeadlineExceeded", res[4].Err)
	}
}

// TestSubmitBatchClosed: every admissible item of a batch against a
// closed service reports ErrClosed.
func TestSubmitBatchClosed(t *testing.T) {
	tm := admitTeam(t, 2, 8, nil)
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := submitBatch(context.Background(), tm, batchOf([]TaskFunc{func(*Worker) {}, func(*Worker) {}}))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("item %d error %v, want ErrClosed", i, r.Err)
		}
	}
}

// TestSubmitBatchConcurrent hammers the batched path from several
// goroutines while workers drain — the -race exercise for the batch slot
// reservation, grouped gauges, and frame recycling together.
func TestSubmitBatchConcurrent(t *testing.T) {
	tm := admitTeam(t, 4, 64, nil)
	defer tm.Close()
	const (
		submitters = 4
		rounds     = 20
		batch      = 16
	)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			items := make([]BatchItem, batch)
			for r := 0; r < rounds; r++ {
				for i := range items {
					items[i] = BatchItem{
						Fn:   func(*Worker) { ran.Add(1) },
						Opts: SubmitOpts{Priority: load.ByPriority[(s+i)%len(load.ByPriority)]},
					}
				}
				res, err := submitBatch(context.Background(), tm, items)
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range res {
					if r.Err != nil {
						t.Errorf("batch item: %v", r.Err)
						return
					}
					if err := r.Job.Wait(); err != nil {
						t.Error(err)
						return
					}
					r.Job.Release()
				}
			}
		}(s)
	}
	wg.Wait()
	if got, want := ran.Load(), int64(submitters*rounds*batch); got != want {
		t.Fatalf("ran %d bodies, want %d", got, want)
	}
	waitFor(t, func() bool { return tm.ActiveJobs() == 0 })
	if d := tm.QueueDepth(); d != 0 {
		t.Fatalf("NJOBS_QUEUED = %d after drain, want 0", d)
	}
}

// TestJobReleaseRecyclesFrames: a submit→wait→release loop reuses pooled
// frames instead of allocating fresh ones each round.
func TestJobReleaseRecyclesFrames(t *testing.T) {
	tm := admitTeam(t, 2, 8, nil)
	defer tm.Close()
	const rounds = 200
	for i := 0; i < rounds; i++ {
		j, err := tm.Submit(func(*Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		j.Release()
		j.Release() // double Release is a no-op
	}
	s := tm.jobPool.Stats()
	// Sequential submit/wait/release cannot need anywhere near one fresh
	// frame per round; allow slack for lane spread (lane = id % workers).
	if s.FreshAllocs > rounds/4 {
		t.Fatalf("FreshAllocs = %d over %d rounds: frames are not recycled", s.FreshAllocs, rounds)
	}
	if s.GlobalHits == 0 {
		t.Fatal("no pooled-frame hits: Release is not feeding the pool")
	}
}

// TestJobReleaseInFlightIsNoop: Release before completion must not
// recycle a live frame.
func TestJobReleaseInFlightIsNoop(t *testing.T) {
	tm := admitTeam(t, 2, 8, nil)
	defer tm.Close()
	gate := make(chan struct{})
	j, err := tm.Submit(func(*Worker) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	j.Release() // in flight: must be ignored
	close(gate)
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if j.ID() == 0 {
		t.Fatal("handle corrupted by in-flight Release")
	}
}

// TestJobWaitManyWaiters: the one-token completion protocol must release
// every concurrent waiter, not just the first.
func TestJobWaitManyWaiters(t *testing.T) {
	tm := admitTeam(t, 2, 8, nil)
	defer tm.Close()
	gate := make(chan struct{})
	j, err := tm.Submit(func(*Worker) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := j.Wait(); err != nil {
				t.Error(err)
			}
		}()
	}
	close(gate)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a waiter never unblocked")
	}
	// Done() materialized after completion must already be closed.
	select {
	case <-j.Done():
	default:
		t.Fatal("Done() not closed after completion")
	}
}
