package core

import (
	"sync"
	"testing"
	"time"
)

// The stamp contract: a job's submit, start and end readings are plain
// fields, each written once per generation, and a worker that adopts a job
// straight after finishing another one starts it at that job's end reading
// instead of reading the clock again (Team.adopt). These tests pin what
// the lent reading may and may not be.

// checkStamps fails unless every job satisfies submit <= start <= end.
// The jobs must have completed.
func checkStamps(t *testing.T, jobs []*Job) {
	t.Helper()
	for _, j := range jobs {
		if j.submitNS > j.startNS || j.startNS > j.endNS || j.QueueDelay() < 0 || j.RunTime() < 0 {
			t.Errorf("job %d: submit %d, start %d, end %d (queue %v, run %v)",
				j.ID(), j.submitNS, j.startNS, j.endNS, j.QueueDelay(), j.RunTime())
		}
	}
}

// gateJob submits a job that reports its worker and then blocks until
// release is closed.
func gateJob(t *testing.T, tm *Team, release <-chan struct{}) (*Job, int) {
	t.Helper()
	at := make(chan int, 1)
	j, err := tm.Submit(func(w *Worker) {
		at <- w.ID()
		<-release
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, <-at
}

// TestJobStampsOrdered: on a 1-worker and a 2-worker serving team, jobs
// with task trees, submitted from several goroutines, all read
// submit <= start <= end, so QueueDelay and RunTime are never negative.
func TestJobStampsOrdered(t *testing.T) {
	for _, workers := range []int{1, 2} {
		tm := admitTeam(t, workers, 64, nil)
		const submitters, each = 4, 40
		jobs := make([]*Job, submitters*each)
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					var out uint64
					j, err := tm.Submit(jobFib(&out, i%8))
					if err != nil {
						t.Error(err)
						return
					}
					jobs[s*each+i] = j
					if i%4 == 3 {
						j.Wait() // mix idle spells in with back-to-back runs
					}
				}
			}(s)
		}
		wg.Wait()
		for _, j := range jobs {
			if j != nil {
				if err := j.Wait(); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkStamps(t, jobs)
		tm.Close()
	}
}

// TestJobStampsBackToBack: a worker that runs queued jobs one after
// another starts each at the previous one's end reading. On the 2-worker
// team the other worker stays blocked in a job, so one worker drains the
// ring alone.
func TestJobStampsBackToBack(t *testing.T) {
	for _, workers := range []int{1, 2} {
		tm := admitTeam(t, workers, 64, nil)
		hold := make(chan struct{})
		if workers == 2 {
			gateJob(t, tm, hold)
		}
		release := make(chan struct{})
		first, runner := gateJob(t, tm, release)
		jobs := []*Job{first}
		for i := 0; i < 32; i++ {
			j, err := tm.Submit(func(*Worker) {})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		close(release)
		for _, j := range jobs {
			if err := j.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		checkStamps(t, jobs)
		for i := 1; i < len(jobs); i++ {
			prev, j := jobs[i-1], jobs[i]
			if int(j.worker) != runner {
				t.Fatalf("%d workers: job %d ran on worker %d, want %d", workers, i, int(j.worker), runner)
			}
			if j.startNS != prev.endNS {
				t.Errorf("%d workers: job %d starts at %d, %v after its predecessor's end %d",
					workers, i, j.startNS, time.Duration(j.startNS-prev.endNS), prev.endNS)
			}
		}
		close(hold)
		tm.Close()
	}
}

// TestJobStampsNestedFinishLendsNothing: job B finishes on worker X inside
// job A's TaskWait, and A's root then completes on the other worker Y. X's
// next adoption, job C, was queued before B finished; it must not start at
// B's end reading, which X took inside another job's body.
//
// Placement is deterministic on a fresh 2-worker xgomptb team (no DLB, no
// stealing): a worker's static balancer sends its first spawn to its own
// queue and alternates from there, and only the owner pops a queue. Y stays
// inside job D until C has run, so C can only go to X.
func TestJobStampsNestedFinishLendsNothing(t *testing.T) {
	tm := admitTeam(t, 2, 64, nil)
	defer tm.Close()
	var (
		goA, goD, goZ          = make(chan struct{}), make(chan struct{}), make(chan struct{})
		b1Ran, a1Ran, cStarted = make(chan struct{}), make(chan struct{}), make(chan struct{})
		aAt, dAt, b2At, a3At   = make(chan int, 1), make(chan int, 1), make(chan int, 1), make(chan int, 1)
	)
	open := func(gates ...chan struct{}) { // only this goroutine closes them
		for _, g := range gates {
			select {
			case <-g:
			default:
				close(g)
			}
		}
	}
	defer open(goA, goD, goZ) // before Close: a failed test leaves no worker blocked
	noop := func(*Worker) {}
	submit := func(fn TaskFunc) *Job {
		t.Helper()
		j, err := tm.Submit(fn)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	// A, on X: spawn a0 (X's queue) and a1 (Y's) and wait for them, which
	// runs a0 and then what Y put in X's queue (B's b2, D's d2); then spawn
	// a2 (X) and a3 (Y) and return with both open. a3 is A's last task.
	a := submit(func(w *Worker) {
		aAt <- w.ID()
		<-goA
		w.Spawn(noop)
		w.Spawn(func(*Worker) { close(a1Ran) })
		w.TaskWait()
		w.Spawn(noop)
		w.Spawn(func(w *Worker) { <-cStarted; a3At <- w.ID() })
	})
	x := <-aAt
	// B, on Y: spawn b1 (Y's queue) and b2 (X's) and return. Once b1 has
	// run, b2 is B's last task, and only X can run it.
	b := submit(func(w *Worker) {
		w.Spawn(func(*Worker) { close(b1Ran) })
		w.Spawn(func(w *Worker) { b2At <- w.ID() })
	})
	<-b1Ran
	// D, on Y once b1 is done: spawn d1 (Y's queue) and d2 (X's), wait for
	// them — d2 holds until a1 has run, so Y runs a1 meanwhile — then hold
	// Y until C has completed.
	d := submit(func(w *Worker) {
		dAt <- w.ID()
		<-goD
		w.Spawn(noop)
		w.Spawn(func(*Worker) { <-a1Ran })
		w.TaskWait()
		<-goZ
	})
	y := <-dAt
	// C is queued while both workers are busy, before B can finish.
	c := submit(func(*Worker) { close(cStarted) })

	open(goA, goD)
	for _, j := range []*Job{b, c} {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	open(goZ)
	for _, j := range []*Job{a, d} {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	if x == y || int(b.worker) != y || int(c.worker) != x {
		t.Fatalf("placement: A and C on %d and %d, B and D on %d and %d; want A, C on one worker, B, D on the other",
			x, int(c.worker), int(b.worker), y)
	}
	if got := <-b2At; got != x {
		t.Fatalf("B finished on worker %d, want %d (inside A's TaskWait)", got, x)
	}
	if got := <-a3At; got != y {
		t.Fatalf("A's root completed on worker %d, want %d", got, y)
	}
	checkStamps(t, []*Job{a, b, c, d})
	if c.startNS == b.endNS {
		t.Errorf("C starts at B's end reading %d, which worker %d took inside A's TaskWait", b.endNS, x)
	}
}
