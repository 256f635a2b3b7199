package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prof"
)

// stretchIdleSweep switches the serve loop's safety-net timer off (an
// hour is never) for teams served during the test, so work that no
// producer announced stays unfound instead of being rescued 2 ms later.
func stretchIdleSweep(t *testing.T) {
	t.Helper()
	old := idleSweep
	idleSweep = time.Hour
	t.Cleanup(func() { idleSweep = old })
}

// TestServeIdleWakeHammer is the proof that no announcement is missing:
// with the sweep off, a 2-worker team is fed single jobs at gaps that
// straddle the idleSpin budget (so workers are asleep, falling asleep or
// spinning when each arrives), and every job fans children out through
// the push sites — static placement onto the possibly sleeping peer, a
// push by a child running on either worker, NA-WS steal responses, NA-RP
// redirects, and the shared-queue substrates whose pushes ring instead of
// naming a target. A producer that publishes without announcing leaves a task in
// a sleeper's queue for good: the job never quiesces and the watchdog
// dumps the goroutines. (Delete the announce in Worker.push and the
// xgomptb row wedges within seconds.)
func TestServeIdleWakeHammer(t *testing.T) {
	stretchIdleSweep(t)
	// The feeder yields through its gaps on-CPU, and `go test ./...` runs
	// this package beside others on as few as two CPUs, where several
	// timing-sensitive tests (here and in xomp) fail under contention at
	// any commit. So the full-length feed runs only with the race
	// detector on — every CI race step, and the race-stress matrix where
	// this test's proof obligation lives — and a plain run keeps a feed
	// that still wedges on a missing announcement with margin: the push
	// mutation wedges on job 1.
	jobs := 1000
	if raceEnabled && !testing.Short() {
		jobs = 20000
	}
	for _, preset := range []string{"xgomptb", "xgomptb+naws", "xgomptb+narp", "lomp", "gomp"} {
		t.Run(preset, func(t *testing.T) {
			tm := serviceTeam(t, preset, 2)
			var ran, progress atomic.Int64
			leaf := func(*Worker) { ran.Add(1) }
			body := func(i int) TaskFunc {
				return func(w *Worker) {
					if i%4 == 3 {
						// Nested spawn: the inner leaves are pushed by
						// whichever worker runs their parent, which need
						// not be the root's.
						w.Spawn(func(w *Worker) {
							w.Spawn(leaf)
							w.Spawn(leaf)
						})
						w.Spawn(leaf)
						w.Spawn(leaf)
					} else {
						for c := 0; c < 4; c++ {
							w.Spawn(leaf)
						}
					}
					if i%2 == 0 {
						w.TaskWait() // the root's worker stays up; the peer may not
					}
				}
			}
			done := make(chan error, 1)
			go func() {
				rng := rand.New(rand.NewSource(16))
				for i := 0; i < jobs; i++ {
					j, err := tm.Submit(body(i))
					if err != nil {
						done <- fmt.Errorf("submit %d: %v", i, err)
						return
					}
					if err := j.Wait(); err != nil {
						done <- fmt.Errorf("job %d: %v", i, err)
						return
					}
					j.Release()
					progress.Add(1)
					// Yield through the gap rather than sleep: a timer wait
					// under a millisecond is rounded up to one by the
					// netpoller whenever the workers are asleep too.
					gap := time.Duration(rng.Intn(200)) * time.Microsecond
					for t0 := time.Now(); time.Since(t0) < gap; {
						runtime.Gosched()
					}
				}
				done <- tm.Close()
			}()
			watchProgress(t, &progress, done)
			if got, want := ran.Load(), int64(4*jobs); got != want {
				t.Fatalf("ran %d leaf tasks, want %d", got, want)
			}
			p := tm.Profile()
			if p.Sum(prof.CntSweepWakes) != 0 {
				t.Fatalf("%d sweep wakes with the sweep switched off", p.Sum(prof.CntSweepWakes))
			}
			t.Logf("parks %d, bell wakes %d, idle polls %d",
				p.Sum(prof.CntIdleParks), p.Sum(prof.CntBellWakes), p.Sum(prof.CntIdlePolls))
		})
	}
}

// watchProgress waits for done, failing with a goroutine dump when
// progress stops advancing for 30 s — a lost wakeup, not a slow run.
func watchProgress(t *testing.T, progress *atomic.Int64, done <-chan error) {
	t.Helper()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	last, stale := int64(-1), 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		case <-tick.C:
			if now := progress.Load(); now != last {
				last, stale = now, 0
			} else if stale++; stale >= 30 {
				buf := make([]byte, 1<<20)
				t.Fatalf("no job completed for 30s after %d: a push went unannounced\n%s",
					last, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// TestServeIdleBurnsNoPolls: an idle pool sleeps. Idle spells of the same
// team — 50 ms, then 250 ms — each pay one idleSpin budget on the way
// down (a service that has admitted nothing yet reads hot: its heat's
// zero value); the extra 200 ms may only add the sweep's one poll per
// idleSweep per worker (a small multiple of it, for timer slop), where a
// spinning pool would add millions. What one idleSpin budget buys in polls depends
// on who else is on the CPU (564 to 2711 were read for the same 50 ms
// spell), so the baseline is the largest of three short spells. The
// per-thread counters are owner-written, so each spell is read after its
// Close.
func TestServeIdleBurnsNoPolls(t *testing.T) {
	const workers = 2
	tm := MustTeam(Preset("xgomptb+naws", workers))
	spell := func(d time.Duration) (polls, parks, sweeps uint64) {
		t.Helper()
		p := tm.Profile()
		polls0, parks0, sweeps0 := p.Sum(prof.CntIdlePolls), p.Sum(prof.CntIdleParks), p.Sum(prof.CntSweepWakes)
		if err := tm.Serve(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(d)
		if err := tm.Close(); err != nil {
			t.Fatal(err)
		}
		return p.Sum(prof.CntIdlePolls) - polls0, p.Sum(prof.CntIdleParks) - parks0, p.Sum(prof.CntSweepWakes) - sweeps0
	}
	var short uint64
	for i := 0; i < 3; i++ {
		polls, _, _ := spell(50 * time.Millisecond)
		short = max(short, polls)
	}
	long, parks, sweeps := spell(250 * time.Millisecond)
	t.Logf("idle polls: at most %d in 50ms, %d in 250ms (%d parks, %d sweep wakes)", short, long, parks, sweeps)
	if parks < workers {
		t.Fatalf("%d parks in a 250ms idle spell of %d workers: the pool never slept", parks, workers)
	}
	extra := uint64(4 * workers * int(200*time.Millisecond/idleSweep))
	if long > 2*short+extra {
		t.Fatalf("idle polls grew %d → %d over an extra 200ms idle; want at most 2×%d+%d (one poll per sweep)",
			short, long, short, extra)
	}
	if sweeps > extra {
		t.Fatalf("%d sweep wakes in 250ms; the sweep period is %v", sweeps, idleSweep)
	}
}

// feedSingles serves a 2-worker xgomptb team, feeds it jobs no-op jobs one
// at a time — submit, wait, then gap before the next — and returns the
// idle polls and bell parks the workers made, read after Close.
func feedSingles(t *testing.T, jobs int, gap time.Duration) (polls, parks uint64) {
	t.Helper()
	tm := serviceTeam(t, "xgomptb", 2)
	for i := 0; i < jobs; i++ {
		j, err := tm.Submit(func(*Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		j.Release()
		if gap > 0 {
			time.Sleep(gap)
		}
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	p := tm.Profile()
	return p.Sum(prof.CntIdlePolls), p.Sum(prof.CntIdleParks)
}

// TestServeIdleGate pins the heat rule both ways. Cold: jobs 2 ms apart
// are neither in flight nor due while a worker idles, so it blocks at its
// first yield point — at most one stall per job, where spinning idleSpin
// after each would cost a thousand polls or more. Hot: back-to-back
// submissions keep the team's admission heat under idleSpin, so the
// worker still spins and finds most next jobs without parking on the bell.
func TestServeIdleGate(t *testing.T) {
	t.Run("cold", func(t *testing.T) {
		const jobs = 100
		polls, parks := feedSingles(t, jobs, 2*time.Millisecond)
		t.Logf("%d jobs 2ms apart: %.1f idle polls, %.2f parks a job", jobs, float64(polls)/jobs, float64(parks)/jobs)
		if polls > 2*stallSpins*jobs {
			t.Fatalf("%d idle polls for %d cold jobs; want at most %d a job", polls, jobs, 2*stallSpins)
		}
	})
	t.Run("hot", func(t *testing.T) {
		if raceEnabled {
			// A submit → Wait round trip under the detector takes about
			// idleSpin itself at GOMAXPROCS 1, so one closed-loop
			// submitter cannot make the team hot there.
			t.Skip("the race detector slows the round trip to idleSpin")
		}
		const jobs = 2000
		polls, parks := feedSingles(t, jobs, 0)
		t.Logf("%d jobs back to back: %.1f idle polls, %.2f parks a job", jobs, float64(polls)/jobs, float64(parks)/jobs)
		if parks > jobs/2 {
			t.Fatalf("%d bell parks for %d back-to-back jobs: the hot team stopped spinning", parks, jobs)
		}
	})
}
