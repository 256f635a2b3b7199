package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServiceWordTransitions is the service lifecycle as a table
// (ARCHITECTURE.md, "Service lifecycle"): every phase × every operation,
// with the outcome the caller sees and the phase left behind. "held" rows
// block for as long as the phase is held — closing by a job in flight,
// stopping by an unjoined worker — and return the listed outcome after.
// jobDone has no row below closing: the count is zero there for good.
func TestServiceWordTransitions(t *testing.T) {
	noop := func(*Worker) {}
	phaseOf := func(tm *Team) int64 { return tm.svc.Load().phase() }

	// reach drives a fresh serving team into each phase by the lifecycle's
	// own transitions; release lets go of whatever holds the phase there.
	reach := map[int64]func(t *testing.T, tm *Team) (release func()){
		svcServing: func(*testing.T, *Team) func() { return func() {} },
		svcClosing: func(t *testing.T, tm *Team) func() {
			release := blockWorkers(t, tm)
			go tm.Close()
			return release
		},
		svcStopping: func(t *testing.T, tm *Team) func() {
			svc := tm.svc.Load()
			svc.wg.Add(1) // one more serve loop for Close to join
			go tm.Close()
			return svc.wg.Done
		},
		svcStopped: func(t *testing.T, tm *Team) func() {
			if err := tm.Close(); err != nil {
				t.Fatal(err)
			}
			return func() {}
		},
	}
	closeOutcome := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, ErrClosed):
			return "closed"
		}
		return err.Error()
	}
	ops := map[string]func(t *testing.T, tm *Team) string{
		"reserve": func(t *testing.T, tm *Team) string {
			before := tm.ActiveJobs()
			j, err := tm.Submit(noop)
			if err == nil {
				return closeOutcome(j.Wait())
			}
			if after := tm.ActiveJobs(); after != before {
				t.Errorf("a refused submission moved ActiveJobs %d → %d", before, after)
			}
			return closeOutcome(err)
		},
		"jobDone": func(t *testing.T, tm *Team) string {
			hold := make(chan struct{})
			before := tm.ActiveJobs()
			j, err := tm.Submit(func(*Worker) { <-hold })
			if err != nil {
				return closeOutcome(err)
			}
			if n := tm.ActiveJobs(); n != before+1 {
				t.Errorf("ActiveJobs = %d with the job in flight, want %d", n, before+1)
			}
			close(hold)
			err = j.Wait()
			if n := tm.ActiveJobs(); n != before {
				t.Errorf("ActiveJobs = %d after Wait returned, want %d", n, before)
			}
			return closeOutcome(err)
		},
		"Close": func(_ *testing.T, tm *Team) string { return closeOutcome(tm.Close()) },
		"second Close": func(_ *testing.T, tm *Team) string {
			if err := tm.Close(); err != nil {
				return closeOutcome(err)
			}
			return closeOutcome(tm.Close())
		},
		"migrate-in": func(t *testing.T, tm *Team) string {
			src := serviceTeam(t, "xgomptb", 1)
			release := blockWorkers(t, src)
			j, err := src.Submit(noop)
			if err != nil {
				t.Fatal(err)
			}
			before := tm.ActiveJobs()
			moved := MigrateQueuedJob(src, tm)
			if after := tm.ActiveJobs(); !moved && after != before {
				t.Errorf("a refused migration moved ActiveJobs %d → %d", before, after)
			}
			release()
			if err := j.Wait(); err != nil || j.migrated != moved {
				t.Errorf("job: Wait = %v, Migrated = %v, moved = %v", err, j.migrated, moved)
			}
			if err := src.Close(); err != nil {
				t.Error(err)
			}
			if moved {
				return "ok"
			}
			return "closed"
		},
		"Serve": func(_ *testing.T, tm *Team) string {
			if err := tm.Serve(); err != nil {
				return "busy"
			}
			return "ok"
		},
		"Run": func(_ *testing.T, tm *Team) (out string) {
			defer func() {
				if recover() != nil {
					out = "busy"
				}
			}()
			tm.Run(noop)
			return "ok"
		},
	}

	for _, tc := range []struct {
		from int64
		op   string
		held bool   // the op returns only after the phase's hold is released
		out  string // ok | closed (ErrClosed, or a refused migration) | busy (still serving)
		want int64  // the phase once op has returned and the hold is released
	}{
		{svcServing, "reserve", false, "ok", svcServing},
		{svcServing, "jobDone", false, "ok", svcServing},
		{svcServing, "Close", false, "ok", svcStopped},
		{svcServing, "second Close", false, "ok", svcStopped},
		{svcServing, "migrate-in", false, "ok", svcServing},
		{svcServing, "Serve", false, "busy", svcServing},
		{svcServing, "Run", false, "busy", svcServing},

		{svcClosing, "reserve", false, "closed", svcStopped},
		{svcClosing, "Close", true, "ok", svcStopped}, // joins the Close already waiting
		{svcClosing, "second Close", true, "ok", svcStopped},
		{svcClosing, "migrate-in", false, "closed", svcStopped},
		{svcClosing, "Serve", false, "busy", svcStopped},
		{svcClosing, "Run", false, "busy", svcStopped},

		{svcStopping, "reserve", false, "closed", svcStopped},
		{svcStopping, "Close", true, "ok", svcStopped},
		{svcStopping, "second Close", true, "ok", svcStopped},
		{svcStopping, "migrate-in", false, "closed", svcStopped},
		{svcStopping, "Serve", true, "ok", svcServing}, // the next generation, once this one has stopped
		{svcStopping, "Run", true, "ok", svcStopped},

		{svcStopped, "reserve", false, "closed", svcStopped},
		{svcStopped, "Close", false, "ok", svcStopped},
		{svcStopped, "second Close", false, "ok", svcStopped},
		{svcStopped, "migrate-in", false, "closed", svcStopped},
		{svcStopped, "Serve", false, "ok", svcServing},
		{svcStopped, "Run", false, "ok", svcStopped},
	} {
		name := [...]string{"serving", "closing", "stopping", "stopped"}[tc.from] + "/" + tc.op
		t.Run(name, func(t *testing.T) {
			tm := serviceTeam(t, "xgomptb", 2)
			release := reach[tc.from](t, tm)
			waitFor(t, func() bool { return phaseOf(tm) == tc.from })

			// A held op runs into the hold, which a timer lets go of; the op
			// must not have returned before that.
			var released atomic.Bool
			if tc.held {
				timer := time.AfterFunc(10*time.Millisecond, func() { released.Store(true); release() })
				defer timer.Stop()
			}
			if out := ops[tc.op](t, tm); out != tc.out {
				t.Fatalf("outcome %q, want %q", out, tc.out)
			}
			if tc.held && !released.Load() {
				t.Fatal("returned while the phase was held")
			}
			if !tc.held {
				after := tc.want
				if tc.from == svcClosing || tc.from == svcStopping {
					after = tc.from // still held
				}
				if p := phaseOf(tm); p != after {
					t.Fatalf("phase %d after the op, want %d", p, after)
				}
				release()
			}
			waitFor(t, func() bool { return phaseOf(tm) == tc.want })
			if n := tm.ActiveJobs(); n != 0 {
				t.Fatalf("ActiveJobs = %d at rest, want 0", n)
			}
			if tm.Serving() {
				if err := tm.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}

	// The one jobDone that moves the phase: the last job out of a closing
	// service releases its Close.
	t.Run("closing/jobDone", func(t *testing.T) {
		tm := serviceTeam(t, "xgomptb", 2)
		release := blockWorkers(t, tm)
		closed := make(chan error, 1)
		go func() { closed <- tm.Close() }()
		waitFor(t, func() bool { return phaseOf(tm) == svcClosing })
		if n := tm.ActiveJobs(); n != 2 {
			t.Fatalf("ActiveJobs = %d while closing around two held jobs", n)
		}
		release()
		if err := <-closed; err != nil || tm.svc.Load().state.Load() != svcStopped {
			t.Fatalf("Close = %v, word = %#x, want stopped with no job counted", err, tm.svc.Load().state.Load())
		}
	})
}

// TestServiceWordHammer races everything that touches the service word:
// submitters on two teams, a migrator moving queued jobs both ways,
// concurrent Closes cutting in mid-stream, and ActiveJobs pollers. Every
// reservation must be retired exactly once — each admitted body runs once,
// every Wait and every Close returns, both words end at stopped with no
// job counted — and no Wait may return while ActiveJobs still counts its
// job: outstanding (submissions started minus waits returned) bounds the
// two teams' counts whenever no migration, which counts a job on both
// sides for a moment, overlapped the reading.
func TestServiceWordHammer(t *testing.T) {
	rounds := 3
	if raceEnabled {
		rounds = 10
	}
	for r := 0; r < rounds; r++ {
		cfg := Preset("xgomptb", 2)
		cfg.Backlog = 4 // small rings: submitters and migrations block on space
		a, b := MustTeam(cfg), MustTeam(cfg)
		for _, tm := range []*Team{a, b} {
			if err := tm.Serve(); err != nil {
				t.Fatal(err)
			}
		}
		var started, waited, admitted, ran, migrating atomic.Int64
		check := func() {
			seq := migrating.Load()
			w := waited.Load()
			n := a.ActiveJobs() + b.ActiveJobs()
			s := started.Load()
			if seq%2 == 0 && migrating.Load() == seq && n > s-w {
				t.Errorf("ActiveJobs = %d with %d submissions outstanding: a Wait returned before its job was retired", n, s-w)
			}
		}

		stop := make(chan struct{})
		var bg sync.WaitGroup
		bg.Add(2)
		go func() { // the migrator
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				migrating.Add(1)
				MigrateQueuedJob(a, b)
				MigrateQueuedJob(b, a)
				migrating.Add(1)
				time.Sleep(50 * time.Microsecond) // readings need migration-free stretches
			}
		}()
		go func() { // the poller
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					check()
					time.Sleep(10 * time.Microsecond)
				}
			}
		}()

		var subs sync.WaitGroup
		for i := 0; i < 4; i++ {
			subs.Add(1)
			// Two submitters Wait; two spin on the completion word, which
			// lets them look at the counts the instant finish publishes.
			go func(tm *Team, poll bool) {
				defer subs.Done()
				for {
					started.Add(1)
					j, err := tm.Submit(func(*Worker) { ran.Add(1) })
					if err != nil {
						waited.Add(1)
						if !errors.Is(err, ErrClosed) {
							t.Error(err)
						}
						return
					}
					admitted.Add(1)
					for poll && !j.done() {
						runtime.Gosched()
					}
					if err := j.Wait(); err != nil {
						t.Error(err)
					}
					waited.Add(1)
					check()
					j.Release()
				}
			}([]*Team{a, b}[i%2], i >= 2)
		}
		waitFor(t, func() bool { return admitted.Load() >= 200 })
		var closers sync.WaitGroup
		for i := 0; i < 4; i++ {
			closers.Add(1)
			go func(tm *Team) {
				defer closers.Done()
				if err := tm.Close(); err != nil {
					t.Error(err)
				}
			}([]*Team{a, b}[i%2])
		}
		closers.Wait()
		subs.Wait()
		close(stop)
		bg.Wait()

		if ran.Load() != admitted.Load() {
			t.Fatalf("%d bodies ran for %d admitted jobs", ran.Load(), admitted.Load())
		}
		for _, tm := range []*Team{a, b} {
			if w := tm.svc.Load().state.Load(); w != svcStopped || tm.ActiveJobs() != 0 {
				t.Fatalf("word = %#x after Close, want stopped with no job counted", w)
			}
		}
	}
}
