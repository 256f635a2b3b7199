package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prof"
)

func serviceTeam(t testing.TB, preset string, workers int) *Team {
	t.Helper()
	cfg := Preset(preset, workers)
	tm := MustTeam(cfg)
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	return tm
}

// jobFib is a spawn-heavy job body computing fib(n) into *out.
func jobFib(out *uint64, n int) TaskFunc {
	return func(w *Worker) {
		*out = fibJob(w, n)
	}
}

func fibJob(w *Worker, n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	var a uint64
	w.Spawn(func(w *Worker) { a = fibJob(w, n-1) })
	b := fibJob(w, n-2)
	w.TaskWait()
	return a + b
}

func TestServiceSingleJob(t *testing.T) {
	tm := serviceTeam(t, "xgomptb", 4)
	defer tm.Close()
	var got uint64
	j, err := tm.Submit(jobFib(&got, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != 987 {
		t.Fatalf("fib(16) = %d, want 987", got)
	}
	if int(j.worker) < 0 || int(j.worker) >= 4 {
		t.Fatalf("adopting worker = %d", int(j.worker))
	}
	if j.RunTime() < 0 || j.QueueDelay() < 0 {
		t.Fatalf("negative job timings: queue=%v run=%v", j.QueueDelay(), j.RunTime())
	}
}

// Many concurrent submitters against one team, on every preset: per-job
// results must be isolated even though all task trees share the substrate.
func TestServiceConcurrentSubmitters(t *testing.T) {
	for _, preset := range PresetNames() {
		t.Run(preset, func(t *testing.T) {
			tm := serviceTeam(t, preset, 4)
			defer tm.Close()
			const submitters = 8
			const jobsPer = 6
			var wg sync.WaitGroup
			errs := make(chan error, submitters)
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for k := 0; k < jobsPer; k++ {
						n := 10 + (s+k)%6
						var got uint64
						j, err := tm.Submit(jobFib(&got, n))
						if err != nil {
							errs <- err
							return
						}
						if err := j.Wait(); err != nil {
							errs <- err
							return
						}
						if want := fibRef(n); got != want {
							errs <- fmt.Errorf("submitter %d: fib(%d) = %d, want %d", s, n, got, want)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

func fibRef(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// A panicking job must fail with a *PanicError carrying its own panic
// value, cancel only its own remaining tasks, and leave the team serving.
func TestServicePanicIsolation(t *testing.T) {
	tm := serviceTeam(t, "xgomptb+naws", 4)
	defer tm.Close()

	var okVal uint64
	okJob, err := tm.Submit(jobFib(&okVal, 18))
	if err != nil {
		t.Fatal(err)
	}
	badJob, err := tm.Submit(func(w *Worker) {
		for i := 0; i < 32; i++ {
			w.Spawn(func(*Worker) {})
		}
		panic("job 2 exploded")
	})
	if err != nil {
		t.Fatal(err)
	}

	err = badJob.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking job returned %v, want *PanicError", err)
	}
	if pe.Value != "job 2 exploded" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if err := okJob.Wait(); err != nil {
		t.Fatalf("healthy job failed: %v", err)
	}
	if want := fibRef(18); okVal != want {
		t.Fatalf("healthy job result %d, want %d", okVal, want)
	}

	// The team must still accept and run jobs after a panic.
	var again uint64
	j, err := tm.Submit(jobFib(&again, 12))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if want := fibRef(12); again != want {
		t.Fatalf("post-panic job result %d, want %d", again, want)
	}
}

// Regression: a panic inside a *nested* TaskGroup must not leak the
// enclosing group's reference count. Before TaskGroup restored the group
// on unwind, the recovered task decremented the abandoned inner group, the
// outer group never quiesced, and Job.Wait/Close hung forever.
func TestServicePanicInNestedTaskGroup(t *testing.T) {
	tm := serviceTeam(t, "xgomptb", 2)
	defer tm.Close()
	j, err := tm.Submit(func(w *Worker) {
		w.TaskGroup(func(w *Worker) {
			w.Spawn(func(w *Worker) {
				w.TaskGroup(func(w *Worker) {
					w.Spawn(func(*Worker) {})
					panic("inner group exploded")
				})
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- j.Wait() }()
	select {
	case err := <-done:
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "inner group exploded" {
			t.Fatalf("Wait = %v, want PanicError(inner group exploded)", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job with nested-taskgroup panic never quiesced")
	}
}

// Service-mode profiles must keep the paper's created/executed counter
// pair balanced: job roots count as created (by their adopter) exactly
// once each.
func TestServiceCounterBalance(t *testing.T) {
	tm := serviceTeam(t, "xgomptb", 2)
	const jobs = 4
	for i := 0; i < jobs; i++ {
		var out uint64
		j, err := tm.Submit(jobFib(&out, 12))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	p := tm.Profile()
	created := p.Sum(prof.CntTasksCreated)
	executed := p.Sum(prof.CntTasksExecuted)
	if created != executed {
		t.Fatalf("NTASKS_CREATED=%d != NTASKS_EXECUTED=%d", created, executed)
	}
	if adopted := p.Sum(prof.CntJobsAdopted); adopted != jobs {
		t.Fatalf("NJOBS_ADOPTED=%d, want %d", adopted, jobs)
	}
}

// Cancellation: once a job fails, its remaining queued task bodies are
// skipped, but the job still quiesces (Wait returns).
func TestServicePanicCancelsOwnTasks(t *testing.T) {
	tm := serviceTeam(t, "xgomptb", 2)
	defer tm.Close()
	var ran atomic.Int64
	j, err := tm.Submit(func(w *Worker) {
		for i := 0; i < 200; i++ {
			w.Spawn(func(*Worker) { ran.Add(1) })
		}
		panic("cancel the rest")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err == nil {
		t.Fatal("panicking job returned nil error")
	}
	if tm.Profile().Sum(0) < 0 { // keep the profile path exercised
		t.Fatal("unreachable")
	}
	t.Logf("tasks that ran before cancellation: %d/200", ran.Load())
}

func TestServiceCloseDrainsAndRejects(t *testing.T) {
	tm := serviceTeam(t, "lomp", 3)
	const jobs = 10
	results := make([]uint64, jobs)
	handles := make([]*Job, jobs)
	for i := range handles {
		j, err := tm.Submit(jobFib(&results[i], 14))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = j
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	// Close must have waited for every job.
	for i, j := range handles {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d not done after Close", i)
		}
		if want := fibRef(14); results[i] != want {
			t.Fatalf("job %d result %d, want %d", i, results[i], want)
		}
	}
	if _, err := tm.Submit(func(*Worker) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	// Repeated Close is safe and returns nil.
	if err := tm.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// After Close, the same team must be reusable: for regions and for a
// second Serve — the barrier-reserved-for-startup/shutdown contract. Job
// tasks never enter the region barrier's task counter, whichever counter
// the preset uses, so every Close leaves it quiescent for the region that
// follows — also after a job that panicked with tasks still queued.
func TestServiceThenRegionThenServeAgain(t *testing.T) {
	for _, preset := range []string{"gomp", "xgomp", "xgomptb"} {
		t.Run(preset, func(t *testing.T) {
			tm := serviceTeam(t, preset, 4)
			var a uint64
			j, _ := tm.Submit(jobFib(&a, 12))
			if err := j.Wait(); err != nil {
				t.Fatal(err)
			}
			bad, _ := tm.Submit(func(w *Worker) {
				for i := 0; i < 32; i++ {
					w.Spawn(func(*Worker) {})
				}
				panic("boom")
			})
			if err := bad.Wait(); err == nil {
				t.Fatal("panicking job reported success")
			}
			if err := tm.Close(); err != nil {
				t.Fatal(err)
			}
			if !tm.counter.quiescent() {
				t.Fatal("task counter not quiescent after the service closed")
			}

			var b uint64
			tm.Run(func(w *Worker) { b = fibJob(w, 12) })
			if a != b {
				t.Fatalf("region after service: %d != %d", b, a)
			}

			if err := tm.Serve(); err != nil {
				t.Fatal(err)
			}
			var c uint64
			j2, err := tm.Submit(jobFib(&c, 12))
			if err != nil {
				t.Fatal(err)
			}
			if err := j2.Wait(); err != nil {
				t.Fatal(err)
			}
			if c != a {
				t.Fatalf("second service: %d != %d", c, a)
			}
			// Job IDs are team-unique across Serve generations (profile records
			// from both generations coexist in the ring).
			if j2.ID() <= j.ID() {
				t.Fatalf("job id %d in second service did not advance past %d", j2.ID(), j.ID())
			}
			if err := tm.Close(); err != nil {
				t.Fatal(err)
			}
			if !tm.counter.quiescent() {
				t.Fatal("task counter not quiescent after the second service closed")
			}
		})
	}
}

func TestServiceGuards(t *testing.T) {
	tm := serviceTeam(t, "xgomptb", 2)
	defer tm.Close()
	if err := tm.Serve(); err == nil {
		t.Fatal("second Serve succeeded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Run on a serving team did not panic")
			}
		}()
		tm.Run(func(*Worker) {})
	}()
	if _, err := tm.Submit(nil); err == nil {
		t.Fatal("Submit(nil) succeeded")
	}
	fresh := MustTeam(Preset("gomp", 2))
	if _, err := fresh.Submit(func(*Worker) {}); err == nil {
		t.Fatal("Submit on a non-serving team succeeded")
	}
	if err := fresh.Close(); err == nil {
		t.Fatal("Close on a non-serving team succeeded")
	}
}

// Jobs may use the full tasking surface: taskgroup, nested spawns, and a
// TaskWait chain, concurrently with other jobs.
func TestServiceFullTaskingSurface(t *testing.T) {
	tm := serviceTeam(t, "xgomptb+narp", 4)
	defer tm.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ordered int
			var sum atomic.Int64
			j, err := tm.Submit(func(w *Worker) {
				w.TaskGroup(func(w *Worker) {
					for lo := 0; lo < 100; lo += 8 {
						hi := min(lo+8, 100)
						w.Spawn(func(w *Worker) {
							for i := lo; i < hi; i++ {
								w.Spawn(func(*Worker) { sum.Add(1) })
							}
						})
					}
					for i := 0; i < 10; i++ {
						w.Spawn(func(*Worker) { ordered++ })
						w.TaskWait()
					}
				})
			})
			if err != nil {
				errs <- err
				return
			}
			if err := j.Wait(); err != nil {
				errs <- err
				return
			}
			if sum.Load() != 100 || ordered != 10 {
				errs <- fmt.Errorf("taskgroup result sum=%d ordered=%d", sum.Load(), ordered)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Per-job profiling records must cover every job with sane timestamps.
func TestServiceJobProfiling(t *testing.T) {
	tm := serviceTeam(t, "xgomptb", 2)
	const jobs = 5
	for i := 0; i < jobs; i++ {
		var out uint64
		j, err := tm.Submit(jobFib(&out, 10))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	recs := tm.Profile().Jobs()
	if len(recs) != jobs {
		t.Fatalf("profile has %d job records, want %d", len(recs), jobs)
	}
	seen := map[int64]bool{}
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate job id %d", r.ID)
		}
		seen[r.ID] = true
		if r.Submit > r.Start || r.Start > r.End {
			t.Fatalf("job %d timestamps out of order: %+v", r.ID, r)
		}
		if r.Panicked {
			t.Fatalf("job %d marked panicked", r.ID)
		}
	}
	snap := tm.Profile().Snapshot()
	if len(snap.Jobs) != jobs {
		t.Fatalf("snapshot has %d job records, want %d", len(snap.Jobs), jobs)
	}
	adopted := tm.Profile().Sum(prof.CntJobsAdopted)
	if adopted != jobs {
		t.Fatalf("NJOBS_ADOPTED sums to %d, want %d", adopted, jobs)
	}
}

// Submit applies backpressure: with both workers occupied and the backlog
// full, the next Submit must block until capacity frees, and every job
// must still complete.
func TestServiceBackpressure(t *testing.T) {
	const workers = 2
	cfg := Preset("xgomptb", workers)
	cfg.Backlog = 1
	tm := MustTeam(cfg)
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	defer tm.Close()

	gate := make(chan struct{})
	var started, ran atomic.Int64
	body := func(*Worker) {
		started.Add(1)
		<-gate
		ran.Add(1)
	}

	// Occupy every worker with a gated job, deterministically.
	for i := 0; i < workers; i++ {
		if _, err := tm.Submit(body); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return started.Load() == workers })
	// Fill the backlog; this job cannot be adopted while workers block.
	if _, err := tm.Submit(body); err != nil {
		t.Fatal(err)
	}
	// The next Submit must block: capacity is workers + Backlog.
	extra := make(chan struct{})
	go func() {
		defer close(extra)
		if _, err := tm.Submit(body); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-extra:
		t.Fatal("Submit beyond workers+Backlog returned without blocking")
	case <-time.After(200 * time.Millisecond):
		// Blocked, as the admission bound requires.
	}

	close(gate)
	select {
	case <-extra:
	case <-time.After(30 * time.Second):
		t.Fatal("blocked Submit never unblocked after capacity freed")
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	if want := int64(workers + 2); ran.Load() != want {
		t.Fatalf("%d jobs ran, want %d", ran.Load(), want)
	}
}

// waitFor polls cond with a deadline, yielding between polls.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTeamSignals: the uniform signal surface reads the service gauges —
// capacity, queued jobs, and the job run-time estimate — fresh on every
// call.
func TestTeamSignals(t *testing.T) {
	tm := MustTeam(Preset("xgomptb+naws", 1))
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	if sig := tm.Signals(); sig.Capacity != 1 || sig.QueueDepth != 0 || sig.JobNS != 0 {
		t.Fatalf("fresh team: %+v, want capacity 1, nothing queued, no job time", sig)
	}
	j, err := tm.Submit(func(*Worker) { time.Sleep(time.Millisecond) })
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if ns := tm.Signals().JobNS; ns < float64(time.Millisecond) {
		t.Fatalf("JobNS = %v after a 1ms job, want >= 1ms", ns)
	}
	gate := make(chan struct{})
	defer close(gate)
	var started atomic.Int64
	if _, err := tm.Submit(func(*Worker) { started.Add(1); <-gate }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return started.Load() == 1 })
	if _, err := tm.Submit(func(*Worker) {}); err != nil {
		t.Fatal(err)
	}
	if sig := tm.Signals(); sig.QueueDepth != 1 || sig.Running != 1 {
		t.Fatalf("one running, one queued: %+v", sig)
	}
}

// Submit racing Close must either run the job to completion or return
// ErrClosed — never hang, never lose a job.
func TestSubmitRacingClose(t *testing.T) {
	for round := 0; round < 8; round++ {
		tm := serviceTeam(t, "xgomptb", 4)
		const submitters = 6
		var (
			accepted atomic.Int64
			rejected atomic.Int64
			ran      atomic.Int64
			wg       sync.WaitGroup
		)
		start := make(chan struct{})
		errs := make(chan error, submitters)
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < 50; k++ {
					j, err := tm.Submit(func(*Worker) { ran.Add(1) })
					if errors.Is(err, ErrClosed) {
						rejected.Add(1)
						return
					}
					if err != nil {
						errs <- err
						return
					}
					accepted.Add(1)
					if err := j.Wait(); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		closed := make(chan error, 1)
		close(start)
		go func() { closed <- tm.Close() }()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("submitters hung racing Close")
		}
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("Close hung racing Submit")
		}
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if got := ran.Load(); got != accepted.Load() {
			t.Fatalf("round %d: %d accepted jobs but %d ran", round, accepted.Load(), got)
		}
	}
}
