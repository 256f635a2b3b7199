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

// admitTeam builds a serving team with a deterministic admission shape:
// workers worker goroutines and a backlog of backlog jobs per class.
func admitTeam(t testing.TB, workers, backlog int, admit load.AdmitPolicy) *Team {
	t.Helper()
	cfg := Preset("xgomptb", workers)
	cfg.Backlog = backlog
	cfg.Admit = admit
	tm := MustTeam(cfg)
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	return tm
}

// occupy fills every worker with a job that blocks on gate, then fills
// the batch-class backlog, so the next batch Submit must wait. It returns
// once all workers are confirmed busy.
func occupy(t *testing.T, tm *Team, workers, backlog int, gate chan struct{}) {
	t.Helper()
	var started atomic.Int64
	for i := 0; i < workers; i++ {
		if _, err := tm.Submit(func(*Worker) { started.Add(1); <-gate }); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return started.Load() == int64(workers) })
	for i := 0; i < backlog; i++ {
		if _, err := tm.Submit(func(*Worker) {}); err != nil {
			t.Fatal(err)
		}
	}
}

// saturateForShed drives a one-worker DeadlineShed team into the state
// where a tight-deadline submission is shed: an established job-time
// estimate (~20ms), the worker wedged on gate, and a job queued ahead.
func saturateForShed(t *testing.T, tm *Team, gate chan struct{}) {
	t.Helper()
	for i := 0; i < 3; i++ {
		j, err := tm.Submit(func(*Worker) { time.Sleep(20 * time.Millisecond) })
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if tm.Signals().JobNS <= 0 {
		t.Fatal("no JobNS estimate after completed jobs")
	}
	var started atomic.Int64
	if _, err := tm.Submit(func(*Worker) { started.Add(1); <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return started.Load() == 1 })
	if _, err := tm.Submit(func(*Worker) {}); err != nil {
		t.Fatal(err)
	}
}

// Regression for the rollback accounting: a submission blocked on a full
// backlog has already incremented svc.active and the NJOBS_QUEUED gauge,
// so a cancelled submission must roll both back exactly once even while
// workers race to adopt from the same queue. The hammer runs many
// submitters whose contexts cancel at random points around the adopt;
// afterwards every gauge must read zero, every admitted job must have
// run, and Close must not hang (it would, forever, if a cancel leaked an
// active count — and double-rollback would panic the cond wait or drive
// gauges negative).
func TestSubmitCtxCancelAdoptRace(t *testing.T) {
	const workers, backlog = 2, 1
	tm := admitTeam(t, workers, backlog, nil)

	var admitted, ran atomic.Int64
	var wg sync.WaitGroup
	const submitters = 8
	const perSubmitter = 200
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < perSubmitter; k++ {
				ctx, cancel := context.WithCancel(context.Background())
				if k%2 == 0 {
					// Half the submissions race a concurrent cancel
					// against the adopters; the other half cancel after
					// a tiny delay so some cancels hit mid-wait.
					go cancel()
				} else {
					time.AfterFunc(time.Duration(k%7)*time.Microsecond, cancel)
				}
				j, err := tm.SubmitCtx(ctx, func(*Worker) { ran.Add(1) },
					SubmitOpts{Priority: load.ClassBatch})
				if err == nil {
					admitted.Add(1)
					if err := j.Wait(); err != nil {
						t.Error(err)
					}
				} else if !errors.Is(err, context.Canceled) {
					t.Errorf("SubmitCtx: %v", err)
				}
				cancel()
			}
		}(s)
	}
	wg.Wait()
	done := make(chan error, 1)
	go func() { done <- tm.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Close hung: a cancelled submission leaked admission accounting")
	}
	if got := ran.Load(); got != admitted.Load() {
		t.Fatalf("%d admitted jobs but %d ran", admitted.Load(), got)
	}
	p := tm.Profile()
	if d := p.QueueDepth(); d != 0 {
		t.Fatalf("NJOBS_QUEUED = %d after drain, want 0 (rollback not exactly-once)", d)
	}
	for c := 0; c < int(load.NumClasses); c++ {
		if d := p.ClassQueued(c); d != 0 {
			t.Fatalf("class %v queue gauge = %d after drain, want 0", load.Class(c), d)
		}
	}
	counts := admitCounts(p)
	total := counts[load.ClassBatch][prof.AdmitAdmitted] + counts[load.ClassBatch][prof.AdmitCancelled]
	if want := uint64(submitters * perSubmitter); total != want {
		t.Fatalf("admitted+cancelled = %d, want exactly one outcome per submission (%d)", total, want)
	}
	if got := counts[load.ClassBatch][prof.AdmitAdmitted]; got != uint64(admitted.Load()) {
		t.Fatalf("ADMIT counter %d, client saw %d admissions", got, admitted.Load())
	}
}

// Team.Close racing submitters blocked on a full backlog: Close must
// neither deadlock waiting on svc.active nor strand a job the service
// already counted. Every submitter that got an error must hold ErrClosed
// (it never entered), and every submitter that got a handle must see its
// job actually run — with backlog 1 the blocked submitters' sends
// complete only because the workers keep draining until active hits
// zero.
func TestCloseVsBlockedSubmitters(t *testing.T) {
	const workers, backlog, blocked = 2, 1, 6
	tm := admitTeam(t, workers, backlog, nil)
	gate := make(chan struct{})
	occupy(t, tm, workers, backlog, gate)

	var ran atomic.Int64
	type result struct {
		j   *Job
		err error
	}
	results := make(chan result, blocked)
	for i := 0; i < blocked; i++ {
		go func() {
			j, err := tm.SubmitCtx(context.Background(), func(*Worker) { ran.Add(1) },
				SubmitOpts{Priority: load.ClassBatch})
			results <- result{j, err}
		}()
	}
	// Give the submitters time to block, then Close concurrently and
	// release the workers while Close is (or is about to be) waiting.
	time.Sleep(50 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- tm.Close() }()
	time.Sleep(10 * time.Millisecond)
	close(gate)

	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Close deadlocked against blocked submitters")
	}
	handles := 0
	for i := 0; i < blocked; i++ {
		r := <-results
		switch {
		case r.err == nil:
			handles++
			select {
			case <-r.j.Done():
			default:
				t.Fatal("Close returned before a counted job quiesced")
			}
		case errors.Is(r.err, ErrClosed):
		default:
			t.Fatalf("blocked submitter returned %v, want nil or ErrClosed", r.err)
		}
	}
	if int(ran.Load()) != handles {
		t.Fatalf("%d submitters got handles but %d jobs ran", handles, ran.Load())
	}
	if d := tm.Profile().QueueDepth(); d != 0 {
		t.Fatalf("NJOBS_QUEUED = %d after Close, want 0", d)
	}
}

// Priority classes are anti-head-of-line-blocking: with the background
// queue stuffed full, an interactive submission is admitted immediately
// (its class queue is independent) and adopted ahead of every queued
// background job (strict class-order adoption).
func TestAdmissionPriorityNoHOLBlocking(t *testing.T) {
	const workers, backlog = 1, 4
	tm := admitTeam(t, workers, backlog, nil)
	defer tm.Close()
	gate := make(chan struct{})
	var started atomic.Int64
	if _, err := tm.Submit(func(*Worker) { started.Add(1); <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return started.Load() == 1 })

	var order []load.Class
	var mu sync.Mutex
	record := func(c load.Class) TaskFunc {
		return func(*Worker) {
			mu.Lock()
			order = append(order, c)
			mu.Unlock()
		}
	}
	// Fill the background class queue completely...
	for i := 0; i < backlog; i++ {
		if _, err := tm.SubmitCtx(context.Background(), record(load.ClassBackground),
			SubmitOpts{Priority: load.ClassBackground}); err != nil {
			t.Fatal(err)
		}
	}
	// ...and verify a further background submission would block (queue
	// full) while an interactive submission still gets in instantly.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := tm.SubmitCtx(ctx, record(load.ClassBackground),
		SubmitOpts{Priority: load.ClassBackground}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("background submission on full class queue: %v, want context.DeadlineExceeded", err)
	}
	ij, err := tm.SubmitCtx(context.Background(), record(load.ClassInteractive),
		SubmitOpts{Priority: load.ClassInteractive})
	if err != nil {
		t.Fatalf("interactive submission behind background flood: %v", err)
	}
	close(gate)
	if err := ij.Wait(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(order) >= 1+backlog })
	mu.Lock()
	defer mu.Unlock()
	if order[0] != load.ClassInteractive {
		t.Fatalf("adoption order %v: interactive job did not jump the background backlog", order)
	}
}

// The shed policy end to end: on a saturated team with an established
// job-time estimate, a submission whose deadline cannot be met is shed
// with ErrShed; the same submission on an idle team is admitted.
func TestDeadlineShedUnderSaturation(t *testing.T) {
	const workers = 1
	tm := admitTeam(t, workers, 2, load.DeadlineShed{})
	defer tm.Close()

	// Establish the JobNS estimate with completed jobs of a known cost.
	for i := 0; i < 3; i++ {
		j, err := tm.Submit(func(*Worker) { time.Sleep(20 * time.Millisecond) })
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if tm.Signals().JobNS <= 0 {
		t.Fatal("no JobNS estimate after completed jobs")
	}

	// Idle team: a tight-deadline job is admitted (no shedding off
	// saturation), even though the deadline is shorter than JobNS.
	j, err := tm.SubmitCtx(context.Background(), func(*Worker) {},
		SubmitOpts{Deadline: time.Now().Add(5 * time.Millisecond)})
	if err != nil {
		t.Fatalf("idle-team deadline submission: %v, want admitted", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}

	// Saturate: occupy the worker, nothing queued. Load() = (queued +
	// running) / capacity is exactly 1, the saturation gate's edge, so
	// the shed predictor engages.
	gate := make(chan struct{})
	defer close(gate)
	var started atomic.Int64
	if _, err := tm.Submit(func(*Worker) { started.Add(1); <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return started.Load() == 1 })
	if l := tm.Signals().Load(); l != 1 {
		t.Fatalf("one running job on one worker: Load = %v, want 1", l)
	}

	_, err = tm.SubmitCtx(context.Background(), func(*Worker) {},
		SubmitOpts{Priority: load.ClassBatch, Deadline: time.Now().Add(time.Millisecond)})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("infeasible deadline under saturation: %v, want ErrShed", err)
	}
	if got := tm.Profile().AdmitCount(int(load.ClassBatch), prof.AdmitShed); got != 1 {
		t.Fatalf("SHED count = %d, want 1", got)
	}

	// No deadline, full class queue: the shed policy rejects rather than
	// blocks, keeping admission latency bounded in the shedding regime.
	for tm.Profile().ClassQueued(int(load.ClassBatch)) < 2 {
		if _, err := tm.SubmitCtx(context.Background(), func(*Worker) {},
			SubmitOpts{Priority: load.ClassBatch}); err != nil {
			t.Fatalf("filling batch queue: %v", err)
		}
	}
	if _, err := tm.SubmitCtx(context.Background(), func(*Worker) {},
		SubmitOpts{Priority: load.ClassBatch}); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("full queue under shed policy: %v, want ErrBacklogFull", err)
	}
}

// RejectWhenFull end to end: a full class queue returns ErrBacklogFull
// immediately; space returns admission. Each class queue is bounded
// independently.
func TestRejectWhenFull(t *testing.T) {
	const workers, backlog = 1, 2
	tm := admitTeam(t, workers, backlog, load.RejectWhenFull{})
	defer tm.Close()
	gate := make(chan struct{})
	defer close(gate)
	var started atomic.Int64
	if _, err := tm.Submit(func(*Worker) { started.Add(1); <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return started.Load() == 1 })
	for i := 0; i < backlog; i++ {
		if _, err := tm.Submit(func(*Worker) {}); err != nil {
			t.Fatalf("submit %d within backlog: %v", i, err)
		}
	}
	if _, err := tm.Submit(func(*Worker) {}); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("submit beyond backlog: %v, want ErrBacklogFull", err)
	}
	// The background class queue is independent: still admits.
	if _, err := tm.SubmitCtx(context.Background(), func(*Worker) {},
		SubmitOpts{Priority: load.ClassBackground}); err != nil {
		t.Fatalf("background submit with full batch queue: %v", err)
	}
	if got := tm.Profile().AdmitCount(int(load.ClassBatch), prof.AdmitRejected); got != 1 {
		t.Fatalf("REJECT count = %d, want 1", got)
	}
}

// Migration preserves the admission class: a background job migrated off
// a hot shard re-enters the destination's background queue and is still
// adopted after the destination's interactive work.
func TestMigratePreservesClass(t *testing.T) {
	mk := func() *Team {
		cfg := Preset("xgomptb", 1)
		cfg.Backlog = 4
		tm := MustTeam(cfg)
		if err := tm.Serve(); err != nil {
			t.Fatal(err)
		}
		return tm
	}
	src, dst := mk(), mk()
	defer src.Close()
	defer dst.Close()

	// Wedge both teams' workers so queues stay observable.
	gs, gd := make(chan struct{}), make(chan struct{})
	var started atomic.Int64
	for _, p := range []struct {
		tm   *Team
		gate chan struct{}
	}{{src, gs}, {dst, gd}} {
		tm, gate := p.tm, p.gate
		if _, err := tm.Submit(func(*Worker) { started.Add(1); <-gate }); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return started.Load() == 2 })

	bg, err := src.SubmitCtx(context.Background(), func(*Worker) {},
		SubmitOpts{Priority: load.ClassBackground})
	if err != nil {
		t.Fatal(err)
	}
	if !MigrateQueuedJob(src, dst) {
		t.Fatal("migration of a queued background job failed")
	}
	if bg.Class() != load.ClassBackground {
		t.Fatalf("migrated job class %v, want background", bg.Class())
	}
	if got := dst.Profile().ClassQueued(int(load.ClassBackground)); got != 1 {
		t.Fatalf("dst background queue gauge = %d, want 1", got)
	}
	if got := src.Profile().ClassQueued(int(load.ClassBackground)); got != 0 {
		t.Fatalf("src background queue gauge = %d, want 0", got)
	}
	close(gs)
	close(gd)
	if err := bg.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bg.Migrated() {
		t.Fatal("job not marked migrated")
	}
}

// Job IDs and admission accounting stay coherent across classes under
// concurrent mixed-class load (order is a side effect; this is the
// everything-still-works smoke for the per-class queue split).
func TestMixedClassConcurrentSubmitters(t *testing.T) {
	tm := admitTeam(t, 4, 8, nil)
	var wg sync.WaitGroup
	var done atomic.Int64
	const submitters = 6
	const jobsPer = 30
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < jobsPer; k++ {
				class := load.Class(k % int(load.NumClasses))
				j, err := tm.SubmitCtx(context.Background(),
					func(*Worker) { done.Add(1) }, SubmitOpts{Priority: class})
				if err != nil {
					t.Errorf("submitter %d: %v", s, err)
					return
				}
				if err := j.Wait(); err != nil {
					t.Error(err)
					return
				}
				if j.Class() != class {
					t.Errorf("job class %v, want %v", j.Class(), class)
				}
			}
		}(s)
	}
	wg.Wait()
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	if got := done.Load(); got != submitters*jobsPer {
		t.Fatalf("%d jobs ran, want %d", got, submitters*jobsPer)
	}
	counts := admitCounts(tm.Profile())
	var admitted uint64
	for c := range counts {
		admitted += counts[c][prof.AdmitAdmitted]
	}
	if admitted != submitters*jobsPer {
		t.Fatalf("ADMIT counters sum to %d, want %d", admitted, submitters*jobsPer)
	}
	recs := tm.Profile().Jobs()
	perClass := map[int]int{}
	for _, r := range recs {
		perClass[r.Class]++
	}
	for c := 0; c < int(load.NumClasses); c++ {
		if perClass[c] != submitters*jobsPer/int(load.NumClasses) {
			t.Fatalf("class %s job records: %v", load.Class(c), perClass)
		}
	}
}
