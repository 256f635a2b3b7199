package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/intake"
	"repro/internal/prof"
)

// TestServeIdleWakeHammer is the proof that no announcement is missing:
// a 2-worker team is fed single jobs at gaps that straddle the idleSpin
// budget (so workers are asleep, falling asleep or spinning when each
// arrives), and every job fans children out through
// the push sites — static placement onto the possibly sleeping peer, a
// push by a child running on either worker, NA-WS steal responses, NA-RP
// redirects, and the shared-queue substrates whose pushes ring instead of
// naming a target. A producer that publishes without announcing leaves a task in
// a sleeper's queue for good — nothing else wakes a blocked worker — so
// the job never quiesces and the watchdog fails with the team's idle
// state. (Delete the announce in Worker.push and the xgomptb row wedges
// on its first job; delete the one in Worker.pushTo and the +naws row
// wedges within seconds.)
func TestServeIdleWakeHammer(t *testing.T) {
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
			watchProgress(t, tm, &progress, done)
			if got, want := ran.Load(), int64(4*jobs); got != want {
				t.Fatalf("ran %d leaf tasks, want %d", got, want)
			}
			p := tm.Profile()
			t.Logf("parks %d, bell wakes %d, idle polls %d",
				p.Sum(prof.CntIdleParks), p.Sum(prof.CntBellWakes), p.Sum(prof.CntIdlePolls))
		})
	}
}

// watchProgress waits for done, failing with tm's idle state and a
// goroutine dump when progress stops advancing for 15 s — a lost wake,
// not a slow run: nothing but an announcement wakes a blocked worker, so
// a wedged feed never recovers.
func watchProgress(t *testing.T, tm *Team, progress *atomic.Int64, done <-chan error) {
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
			} else if stale++; stale >= 15 {
				buf := make([]byte, 1<<20)
				t.Fatalf("no progress for 15s after %d: a publication went unannounced\n%s\n%s",
					last, idleDump(tm), buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// idleDump renders what a lost wake leaves behind: the bell's
// registrations and pending tokens, the active count, each class's ring
// and parked runs, and each worker's own queues. It reads them unlocked;
// on a wedged team nothing moves them.
func idleDump(tm *Team) string {
	svc := tm.svc.Load()
	if svc == nil {
		return "team not serving"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "phase %d, %d jobs active; bell registrations %v, tokens pending", svc.phase(), svc.state.Load()>>svcPhaseBits, bellRegistrations(svc.bell))
	for id := range tm.workers {
		fmt.Fprintf(&b, " w%d:%d", id, len(svc.bell.Chan(id)))
	}
	for c := range svc.submit {
		fmt.Fprintf(&b, "\nclass %d: ring holds %d, parked run %t", c, svc.submit[c].Len(), svc.runs[c].head.Load() != nil)
	}
	for id := range tm.workers {
		fmt.Fprintf(&b, "\nworker %d: own queues empty %t", id, tm.sched.empty(id))
	}
	return b.String()
}

// bellRegistrations reads the ids registered on b. The registry is the
// intake package's own, and nothing outside a failing test needs to list
// it, so the dump reads it through reflection.
func bellRegistrations(b *intake.Bell) []int {
	ids := reflect.ValueOf(b).Elem().FieldByName("ids")
	out := make([]int, ids.Len())
	for i := range out {
		out[i] = int(ids.Index(i).Int())
	}
	return out
}

// TestServeIdleBurnsNoPolls: an idle pool sleeps. With nothing in
// flight each worker blocks at its first yield point, and nothing but an
// announcement wakes it, so an idle spell costs a yield point's polls per
// worker whatever its length — a 50 ms spell and a 250 ms one alike,
// where a spinning pool would add millions. The per-thread counters are
// owner-written, so each spell is read after its Close.
func TestServeIdleBurnsNoPolls(t *testing.T) {
	const workers = 2
	tm := MustTeam(Preset("xgomptb+naws", workers))
	spell := func(d time.Duration) (polls, parks uint64) {
		t.Helper()
		p := tm.Profile()
		polls0, parks0 := p.Sum(prof.CntIdlePolls), p.Sum(prof.CntIdleParks)
		if err := tm.Serve(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(d)
		if err := tm.Close(); err != nil {
			t.Fatal(err)
		}
		return p.Sum(prof.CntIdlePolls) - polls0, p.Sum(prof.CntIdleParks) - parks0
	}
	const bound = 2 * workers * (stallSpins + 1)
	for _, d := range []time.Duration{50 * time.Millisecond, 250 * time.Millisecond} {
		polls, parks := spell(d)
		t.Logf("idle %v: %d polls, %d parks", d, polls, parks)
		if parks < workers {
			t.Fatalf("%d parks in a %v idle spell of %d workers: the pool never slept", parks, d, workers)
		}
		if polls > bound {
			t.Fatalf("%d idle polls in a %v idle spell; want at most %d (a yield point's worth per worker, twice)", polls, d, bound)
		}
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

// TestServeIdleGate pins the in-flight rule both ways. Nothing in
// flight: single no-op jobs, back to back (hot) or 2 ms apart (cold),
// leave no job
// in flight while a worker idles, so it blocks at its first yield point
// — at most a stall of polls a job, where spinning idleSpin after each
// would cost a thousand or more. In flight: one long job whose root,
// on one worker, hands the other a task, waits until it has run, and
// hands it the next. The other worker finds each task spinning, without
// a bell park, because the job is still in flight. The case pins
// GOMAXPROCS 1, which makes it exact whatever else the host runs: the
// root runs only when the other worker yields, and that worker yields at
// its first yield point only if it keeps spinning; parking instead
// costs a park a hand-off.
func TestServeIdleGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		gap  time.Duration
	}{{"hot", 0}, {"cold", 2 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			const jobs = 200
			polls, parks := feedSingles(t, jobs, tc.gap)
			t.Logf("%d jobs %v apart: %.1f idle polls, %.2f parks a job", jobs, tc.gap, float64(polls)/jobs, float64(parks)/jobs)
			if polls > 2*stallSpins*jobs {
				t.Fatalf("%d idle polls for %d jobs with nothing in flight between them; want at most %d a job", polls, jobs, 2*stallSpins)
			}
		})
	}
	t.Run("in-flight", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const rounds = 200
		tm := serviceTeam(t, "xgomptb", 2)
		var ran atomic.Int64
		j, err := tm.Submit(func(w *Worker) {
			peer := 1 - w.ID()
			for i := int64(1); i <= rounds; i++ {
				pushToPeer(w, peer, func(*Worker) { ran.Add(1) })
				for ran.Load() < i {
					runtime.Gosched()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		j.Release()
		if err := tm.Close(); err != nil {
			t.Fatal(err)
		}
		parks := tm.Profile().Sum(prof.CntIdleParks)
		t.Logf("%d hand-offs inside one job: %d bell parks", rounds, parks)
		// Each worker parks once before the job and once after it.
		if parks > 4 {
			t.Fatalf("%d bell parks over %d hand-offs inside one job: the peer stopped spinning while a job was in flight", parks, rounds)
		}
	})
}

// pushToPeer spawns fn as a child of w's current task directly into
// worker to's queues, as a DLB steal response would.
func pushToPeer(w *Worker, to int, fn TaskFunc) {
	t := w.team.alloc.Get(w.id)
	t.reset(fn, w.cur, int32(w.id))
	w.linkChild(t)
	if !w.pushTo(to, t) {
		w.runNow(t)
	}
}
