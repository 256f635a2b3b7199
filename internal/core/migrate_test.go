package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockWorkers submits one parked job per worker of tm and returns once all
// of them are running, so every subsequent submission stays queued. The
// returned release function unparks them.
func blockWorkers(t *testing.T, tm *Team) (release func()) {
	t.Helper()
	hold := make(chan struct{})
	var running sync.WaitGroup
	running.Add(tm.Workers())
	for i := 0; i < tm.Workers(); i++ {
		if _, err := tm.Submit(func(w *Worker) {
			running.Done()
			<-hold
		}); err != nil {
			t.Fatal(err)
		}
	}
	running.Wait()
	return func() { close(hold) }
}

func TestMigrateQueuedJob(t *testing.T) {
	cfg := Preset("xgomptb+naws", 2)
	cfg.Backlog = 64
	src := MustTeam(cfg)
	dst := MustTeam(cfg)
	for _, tm := range []*Team{src, dst} {
		if err := tm.Serve(); err != nil {
			t.Fatal(err)
		}
	}

	release := blockWorkers(t, src)

	const queued = 8
	var ran atomic.Int64
	jobs := make([]*Job, queued)
	for i := range jobs {
		j, err := src.Submit(func(w *Worker) { ran.Add(1) })
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	if d := src.QueueDepth(); d != queued {
		t.Fatalf("src queue depth = %d, want %d", d, queued)
	}

	moved := 0
	for MigrateQueuedJob(src, dst) {
		moved++
	}
	if moved != queued {
		t.Fatalf("migrated %d jobs, want %d", moved, queued)
	}
	// src's workers are still parked, so only dst can complete the jobs,
	// and dst's workers, with nothing in flight before, were asleep: the
	// migrations' announcements are all that wakes them.
	for i, j := range jobs {
		done := make(chan error, 1)
		go func() { done <- j.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("migrated job %d never ran: its destination slept through it\n%s", i, idleDump(dst))
		}
		if !j.Migrated() {
			t.Fatalf("job %d not marked migrated", i)
		}
		if w := j.Worker(); w < 0 || w >= dst.Workers() {
			t.Fatalf("job %d adopted by worker %d, want a dst worker", i, w)
		}
	}
	if n := ran.Load(); n != queued {
		t.Fatalf("job bodies ran %d times, want exactly %d", n, queued)
	}
	if in, out := src.Profile().JobsMigrated(); in != 0 || out != queued {
		t.Fatalf("src migrated in/out = %d/%d, want 0/%d", in, out, queued)
	}
	if in, out := dst.Profile().JobsMigrated(); in != queued || out != 0 {
		t.Fatalf("dst migrated in/out = %d/%d, want %d/0", in, out, queued)
	}
	recs := dst.Profile().Jobs()
	if len(recs) != queued {
		t.Fatalf("dst recorded %d jobs, want %d", len(recs), queued)
	}
	for _, r := range recs {
		if !r.Migrated {
			t.Fatalf("dst job record %d not marked migrated", r.ID)
		}
	}

	release()
	for _, tm := range []*Team{src, dst} {
		if err := tm.Close(); err != nil {
			t.Fatal(err)
		}
		if d := tm.QueueDepth(); d != 0 {
			t.Fatalf("queue depth %d after Close, want 0", d)
		}
		if a := tm.ActiveJobs(); a != 0 {
			t.Fatalf("%d active jobs after Close, want 0", a)
		}
	}
}

func TestMigrateQueuedJobRefusals(t *testing.T) {
	src := serviceTeam(t, "xgomptb", 2)
	dst := serviceTeam(t, "xgomptb", 2)
	idle := MustTeam(Preset("xgomptb", 2)) // never serving

	if MigrateQueuedJob(src, src) {
		t.Fatal("migrated a job from a team to itself")
	}
	if MigrateQueuedJob(src, dst) {
		t.Fatal("migrated a job from an empty queue")
	}
	if MigrateQueuedJob(src, idle) || MigrateQueuedJob(idle, dst) {
		t.Fatal("migrated involving a non-serving team")
	}

	// A closed dst refuses the job; it stays on src and still completes.
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	release := blockWorkers(t, src)
	var ran atomic.Int64
	j, err := src.Submit(func(w *Worker) { ran.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if MigrateQueuedJob(src, dst) {
		t.Fatal("migrated a job onto a closed team")
	}
	release()
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if j.Migrated() {
		t.Fatal("unmigrated job marked migrated")
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("job body ran %d times, want exactly 1", n)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMigratePanicIsolation checks that per-job panic isolation survives a
// migration: the migrated job fails with its own PanicError while both the
// origin and the destination team keep serving other jobs.
func TestMigratePanicIsolation(t *testing.T) {
	src := serviceTeam(t, "xgomptb+naws", 2)
	dst := serviceTeam(t, "xgomptb+naws", 2)

	release := blockWorkers(t, src)
	bad, err := src.Submit(func(w *Worker) {
		w.Spawn(func(w *Worker) { panic("boom across shards") })
		w.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	var ok uint64
	good, err := src.Submit(jobFib(&ok, 12))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !MigrateQueuedJob(src, dst) {
			t.Fatalf("migration %d failed", i)
		}
	}
	perr := bad.Wait()
	if perr == nil {
		t.Fatal("migrated panicking job reported success")
	}
	pe, isPanic := perr.(*PanicError)
	if !isPanic || pe.Value != "boom across shards" {
		t.Fatalf("Wait = %v, want PanicError(boom across shards)", perr)
	}
	if err := good.Wait(); err != nil {
		t.Fatal(err)
	}
	if ok != 144 {
		t.Fatalf("fib(12) = %d, want 144", ok)
	}
	release()

	// Both teams must still accept and complete jobs.
	for _, tm := range []*Team{src, dst} {
		var got uint64
		j, err := tm.Submit(jobFib(&got, 10))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		if got != 55 {
			t.Fatalf("fib(10) = %d, want 55", got)
		}
		if err := tm.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMigrateUnderChurn races a stream of submitters against a migrating
// balancer in both directions and checks exactly-once completion.
func TestMigrateUnderChurn(t *testing.T) {
	a := serviceTeam(t, "xgomptb+naws", 2)
	b := serviceTeam(t, "xgomptb+naws", 2)

	const jobsPerSide = 200
	var ran atomic.Int64
	stop := make(chan struct{})
	var balWG sync.WaitGroup
	balWG.Add(1)
	go func() {
		defer balWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			MigrateQueuedJob(a, b)
			MigrateQueuedJob(b, a)
		}
	}()

	var wg sync.WaitGroup
	for _, tm := range []*Team{a, b} {
		wg.Add(1)
		go func(tm *Team) {
			defer wg.Done()
			jobs := make([]*Job, 0, jobsPerSide)
			for i := 0; i < jobsPerSide; i++ {
				j, err := tm.Submit(func(w *Worker) {
					ran.Add(1)
					time.Sleep(10 * time.Microsecond)
				})
				if err != nil {
					t.Error(err)
					return
				}
				jobs = append(jobs, j)
			}
			for _, j := range jobs {
				if err := j.Wait(); err != nil {
					t.Error(err)
				}
			}
		}(tm)
	}
	wg.Wait()
	close(stop)
	balWG.Wait()

	if n := ran.Load(); n != 2*jobsPerSide {
		t.Fatalf("job bodies ran %d times, want exactly %d", n, 2*jobsPerSide)
	}
	for _, tm := range []*Team{a, b} {
		if err := tm.Close(); err != nil {
			t.Fatal(err)
		}
		if d := tm.QueueDepth(); d != 0 {
			t.Fatalf("queue depth %d after Close, want 0", d)
		}
	}
}

// TestMigrateFromEmptyIsInvisible hammers MigrateQueuedJob from a team
// with nothing queued while a poller reads the destination's ActiveJobs.
// A balancer that plans from stale signals makes exactly these calls, and
// none of them may show on dst: a reservation taken before the dequeue
// and handed back after an empty one would read as a phantom active job
// to anyone who checks dst after every job has quiesced.
func TestMigrateFromEmptyIsInvisible(t *testing.T) {
	src := serviceTeam(t, "xgomptb", 1)
	dst := serviceTeam(t, "xgomptb", 1)
	defer src.Close()
	defer dst.Close()

	var done atomic.Bool
	var reads, phantoms atomic.Int64
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for !done.Load() {
			if dst.ActiveJobs() != 0 {
				phantoms.Add(1)
			}
			reads.Add(1)
			runtime.Gosched()
		}
	}()
	for i := 0; i < 20000; i++ {
		if MigrateQueuedJob(src, dst) {
			t.Fatal("migrated a job from an empty queue")
		}
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	done.Store(true)
	poller.Wait()
	if n := phantoms.Load(); n != 0 {
		t.Fatalf("dst read %d active jobs in %d polls with nothing to migrate", n, reads.Load())
	}
}
