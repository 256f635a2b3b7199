package bots

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// Every benchmark must run — and verify — as one job on a shared serving
// team, the task-service counterpart of the per-app region tests.
func TestRunTaskAsServiceJob(t *testing.T) {
	tm := core.MustTeam(core.Preset("xgomptb", 4))
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	for _, name := range Names {
		b := MustNew(name, ScaleTest)
		j, err := tm.Submit(b.RunTask)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := j.Wait(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// Mixed BOTS workloads in flight simultaneously on one team: fib, sort and
// nqueens task trees interleave in the shared substrate, and each job's
// result must still verify against its own sequential reference.
func TestRunTaskMixedConcurrentJobs(t *testing.T) {
	tm := core.MustTeam(core.Preset("xgomptb+naws", 4))
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	mix := []string{"fib", "sort", "nqueens"}
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(mix)*rounds)
	for r := 0; r < rounds; r++ {
		for _, name := range mix {
			b := MustNew(name, ScaleTest)
			j, err := tm.Submit(b.RunTask)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := j.Wait(); err != nil {
					errs <- err
					return
				}
				if err := b.Verify(); err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A pooled instance serves job after job: every app's RunTask resets its
// per-run state, so a second run on the same instance verifies as the
// first did. Its Body then runs one more job and hands it back.
func TestPooledInstanceRunsTwice(t *testing.T) {
	tm := core.MustTeam(core.Preset("xgomptb+naws", 2))
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	run := func(name string, body core.TaskFunc) {
		t.Helper()
		j, err := tm.Submit(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := j.Wait(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, name := range Names {
		in := Get(name, ScaleTest)
		for r := 1; r <= 2; r++ {
			run(name, in.RunTask)
			if err := in.Verify(); err != nil {
				t.Fatalf("%s, run %d on one instance: %v", name, r, err)
			}
		}
		run(name, in.Body)
	}
	if Get("nosuchapp", ScaleTest) != nil {
		t.Fatal("Get returned an instance for an unknown app")
	}
	if Get("fib", ScaleLarge+1) != nil {
		t.Fatal("Get returned an instance for an unknown scale")
	}
}
