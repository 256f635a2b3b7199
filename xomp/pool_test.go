package xomp_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/xomp"
)

// poolFib computes fib(n) with one task per recursive call.
func poolFib(w *xomp.Worker, n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	var a uint64
	w.Spawn(func(w *xomp.Worker) { a = poolFib(w, n-1) })
	b := poolFib(w, n-2)
	w.TaskWait()
	return a + b
}

func fibSeq(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func TestPoolQuickstart(t *testing.T) {
	pool := xomp.MustPool(xomp.Preset("xgomptb", 4))
	defer pool.Close()
	var got uint64
	job, err := pool.Submit(func(w *xomp.Worker) { got = poolFib(w, 20) })
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if want := fibSeq(20); got != want {
		t.Fatalf("fib(20) = %d, want %d", got, want)
	}
	if pool.Workers() != 4 {
		t.Fatalf("Workers = %d", pool.Workers())
	}
}

// The concurrent-submission stress test: ≥8 goroutines submit overlapping
// jobs to one pool, on every preset, with deliberate panics mixed in. Run
// under -race, it asserts per-job isolation of both results and panics:
// every healthy job computes its own correct value, every poisoned job
// fails with exactly its own panic payload, and the pool survives.
func TestPoolConcurrentSubmittersStress(t *testing.T) {
	for _, preset := range xomp.PresetNames() {
		t.Run(preset, func(t *testing.T) {
			pool := xomp.MustPool(xomp.Preset(preset, 4))
			defer pool.Close()
			const submitters = 8
			const jobsPer = 5
			var wg sync.WaitGroup
			errs := make(chan error, submitters*jobsPer)
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for k := 0; k < jobsPer; k++ {
						poison := (s+k)%5 == 4
						tag := fmt.Sprintf("panic-%d-%d", s, k)
						n := 10 + (s+k)%5
						var got uint64
						job, err := pool.Submit(func(w *xomp.Worker) {
							v := poolFib(w, n)
							if poison {
								panic(tag)
							}
							got = v
						})
						if err != nil {
							errs <- fmt.Errorf("submit %d/%d: %w", s, k, err)
							return
						}
						err = job.Wait()
						if poison {
							var pe *xomp.PanicError
							if !errors.As(err, &pe) {
								errs <- fmt.Errorf("job %d/%d: want PanicError, got %v", s, k, err)
							} else if pe.Value != tag {
								errs <- fmt.Errorf("job %d/%d: panic value %v, want %q (cross-job leak?)", s, k, pe.Value, tag)
							}
							continue
						}
						if err != nil {
							errs <- fmt.Errorf("job %d/%d: %w", s, k, err)
							continue
						}
						if want := fibSeq(n); got != want {
							errs <- fmt.Errorf("job %d/%d: fib(%d) = %d, want %d", s, k, n, got, want)
						}
					}
				}(s)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

func TestPoolSubmitAfterClose(t *testing.T) {
	pool := xomp.MustPool(xomp.Preset("lomp", 2))
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Submit(func(*xomp.Worker) {}); !errors.Is(err, xomp.ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
}

// Per-job profiling must be reachable through the public facade.
func TestPoolJobProfile(t *testing.T) {
	pool := xomp.MustPool(xomp.Preset("xgomp", 2))
	job, err := pool.Submit(func(w *xomp.Worker) { poolFib(w, 12) })
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	recs := pool.Team(0).Profile().Jobs()
	if len(recs) != 1 {
		t.Fatalf("%d job records, want 1", len(recs))
	}
	if recs[0].QueueDelay() < 0 || recs[0].RunTime() < 0 {
		t.Fatalf("negative timings: %+v", recs[0])
	}
	if job.RunTime() <= 0 {
		t.Fatalf("job RunTime = %v", job.RunTime())
	}
}

// The one-shard pool's team exposes the same load signals the pool reads
// per shard; its capacity is the whole team.
func TestPoolLoadSignals(t *testing.T) {
	pool := xomp.MustPool(xomp.Preset("xgomptb", 4))
	defer pool.Close()
	team := pool.Team(0)
	if pool.Workers() != 4 {
		t.Fatalf("fresh pool: %d workers, want 4", pool.Workers())
	}
	if team.QueueDepth() != 0 || team.ActiveJobs() != 0 {
		t.Fatalf("idle pool reports depth %d, active %d", team.QueueDepth(), team.ActiveJobs())
	}
	gate := make(chan struct{})
	var jobs []*xomp.Job
	for i := 0; i < 6; i++ {
		j, err := pool.Submit(func(*xomp.Worker) { <-gate })
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if got := team.ActiveJobs(); got != 6 {
		t.Fatalf("ActiveJobs = %d, want 6", got)
	}
	if got := team.QueueDepth(); got < 1 || got > 6 {
		t.Fatalf("QueueDepth = %d with 6 gated jobs on 4 workers", got)
	}
	if sig := team.Signals(); sig.Capacity != float64(team.Workers()) {
		t.Fatalf("Signals().Capacity = %v, want Workers() = %d", sig.Capacity, team.Workers())
	}
	close(gate)
	for _, j := range jobs {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := team.ActiveJobs(); got != 0 {
		t.Fatalf("ActiveJobs = %d after drain, want 0", got)
	}
}
