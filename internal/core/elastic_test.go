package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/numa"
)

// SetActive is a service-mode-only lever with strict bounds; every misuse
// must error cleanly — in particular on a closed team (a controller's tick
// racing the pool's Close).
func TestSetActiveLifecycle(t *testing.T) {
	tm := MustTeam(Preset("xgomptb", 4))
	if err := tm.SetActive(2); err == nil {
		t.Fatal("SetActive on a never-served team succeeded")
	}
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1, 5} {
		if err := tm.SetActive(n); err == nil {
			t.Fatalf("SetActive(%d) out of [1, 4] succeeded", n)
		}
	}
	if err := tm.SetActive(2); err != nil {
		t.Fatal(err)
	}
	if got := tm.ActiveWorkers(); got != 2 {
		t.Fatalf("ActiveWorkers = %d, want 2", got)
	}
	if got := tm.Profile().WorkersActive(); got != 2 {
		t.Fatalf("NWORKERS_ACTIVE gauge = %d, want 2", got)
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tm.SetActive(3); !errors.Is(err, ErrClosed) {
		t.Fatalf("SetActive on a closed team: %v, want ErrClosed", err)
	}
	// Close restores the full-capacity invariant for regions and the
	// next Serve generation.
	if got := tm.ActiveWorkers(); got != 4 {
		t.Fatalf("ActiveWorkers after Close = %d, want 4", got)
	}
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	if got := tm.ActiveWorkers(); got != 4 {
		t.Fatalf("ActiveWorkers after re-Serve = %d, want 4", got)
	}
}

// Shrinking the active set to one worker must still complete every job
// (the parked workers hand off or drain anything routed to them), and
// growing it back must put the parked workers back to work.
func TestSetActiveParksAndResumes(t *testing.T) {
	for _, preset := range []string{"gomp", "lomp", "xgomptb", "xgomptb+naws"} {
		t.Run(preset, func(t *testing.T) {
			tm := serviceTeam(t, preset, 4)
			defer tm.Close()
			run := func(n int) {
				var got uint64
				j, err := tm.Submit(jobFib(&got, 14))
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Wait(); err != nil {
					t.Fatal(err)
				}
				if want := fibRef(14); got != want {
					t.Fatalf("active=%d: fib(14) = %d, want %d", n, got, want)
				}
			}
			for _, n := range []int{4, 1, 2, 4} {
				if err := tm.SetActive(n); err != nil {
					t.Fatal(err)
				}
				run(n)
			}
		})
	}
}

// The elastic correctness criterion: continuous submissions across
// repeated SetActive resizes complete every job exactly once, with panics
// still isolated per job. Runs under -race in CI.
func TestSetActiveResizeStress(t *testing.T) {
	tm := serviceTeam(t, "xgomptb+naws", 8)
	defer tm.Close()

	const (
		submitters = 4
		jobsPer    = 60
	)
	var (
		completions atomic.Int64 // one per healthy job root body
		panicRoots  atomic.Int64 // one per panicking job root body
		panicsSeen  atomic.Int64 // PanicErrors surfaced by Wait
		wg          sync.WaitGroup
	)
	errs := make(chan error, submitters)
	stopResize := make(chan struct{})

	// The resizer cycles the active set over [1, 8] while jobs stream in.
	var resizeWG sync.WaitGroup
	resizeWG.Add(1)
	go func() {
		defer resizeWG.Done()
		rng := rand.New(rand.NewSource(42))
		for {
			select {
			case <-stopResize:
				return
			default:
			}
			if err := tm.SetActive(1 + rng.Intn(8)); err != nil {
				errs <- err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < jobsPer; k++ {
				if (s+k)%17 == 0 {
					j, err := tm.Submit(func(w *Worker) {
						panicRoots.Add(1)
						for i := 0; i < 8; i++ {
							w.Spawn(func(*Worker) {})
						}
						panic("resize stress panic")
					})
					if err != nil {
						errs <- err
						return
					}
					var pe *PanicError
					if err := j.Wait(); !errors.As(err, &pe) {
						errs <- err
						return
					}
					panicsSeen.Add(1)
					continue
				}
				n := 10 + (s+k)%4
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
				completions.Add(1)
				if want := fibRef(n); got != want {
					errs <- errors.New("wrong fib result under resize stress")
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(stopResize)
	resizeWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := int64(submitters * jobsPer)
	if got := completions.Load() + panicsSeen.Load(); got != want {
		t.Fatalf("jobs completed %d, want %d (every job exactly once)", got, want)
	}
	if panicsSeen.Load() == 0 {
		t.Fatal("stress mix never exercised a panicking job")
	}
	if panicRoots.Load() != panicsSeen.Load() {
		t.Fatalf("%d panicking roots ran but %d PanicErrors surfaced", panicRoots.Load(), panicsSeen.Load())
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

// Thieves must never select a parked victim: with the active set shrunk,
// victim selection must stay inside the active prefix for both local and
// remote picks, at every PLocal setting.
func TestParkedVictimNeverPicked(t *testing.T) {
	for _, pl := range []float64{0, 0.5, 1} {
		cfg := Preset("xgomptb+naws", 8)
		cfg.Topology = numa.Synthetic(8, 2)
		cfg.DLB.PLocal = pl
		tm := MustTeam(cfg)
		tm.active.Store(3) // workers 3..7 parked (zone 1 fully parked)
		for _, w := range []*Worker{tm.workers[0], tm.workers[2]} {
			for i := 0; i < 4096; i++ {
				v := tm.pickVictim(w, pl)
				if v == w.id {
					t.Fatalf("PLocal=%v: worker %d picked itself", pl, w.id)
				}
				if v >= 3 {
					t.Fatalf("PLocal=%v: worker %d picked parked victim %d", pl, w.id, v)
				}
				if v < 0 {
					t.Fatalf("PLocal=%v: worker %d found no victim with 3 active", pl, w.id)
				}
			}
		}
		// A single active worker has no victims at all.
		tm.active.Store(1)
		if v := tm.pickVictim(tm.workers[0], pl); v != -1 {
			t.Fatalf("PLocal=%v: lone active worker picked victim %d", pl, v)
		}
	}
}

// A victim must drop (not serve) a steal request whose thief parked after
// sending it: tasks migrated to a parked thief would strand until its
// next stray sweep.
func TestVictimDropsParkedThief(t *testing.T) {
	cfg := Preset("xgomptb+naws", 4)
	tm := MustTeam(cfg)
	v := tm.workers[0]
	round := v.round.Load() & roundMask
	v.request.Store(uint64(3)<<roundBits | round) // thief 3 requests
	tm.active.Store(3)                            // ... then parks
	tm.victimCheck(v, &tm.cfg.DLB)
	if got := v.round.Load(); got != round+1 {
		t.Fatalf("round = %d, want %d (request from parked thief dropped)", got, round+1)
	}
}
