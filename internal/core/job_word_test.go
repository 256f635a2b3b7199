package core

import (
	"testing"
	"time"

	"repro/internal/load"
)

// acquireJob draws and initializes one frame the way admitBatch does for a
// batch of one.
func (tm *Team) acquireJob(id int64, fn TaskFunc, class load.Class, tenant load.Tenant) *Job {
	var one [1]*Job
	lane := tm.acquireJobs(id, one[:])
	one[0].resetForSubmit(tm, lane, id, fn, class, tenant)
	return one[0]
}

// TestJobWordTransitions is the completion protocol as a table: every
// phase of Job.word × every operation, with the phase it must leave
// behind. "parks" rows block until a finish; "panics" rows are contract
// violations (use after Release, two kinds of party on one generation)
// that fail loudly instead of hanging or corrupting a later generation.
// finish on pooled/done has no row: cascade runs it once per generation.
// The sink kind is a column, not more rows: every row holds for a channel
// and for an Outbox, whose token count must equal its deliveries (at most
// one of either per row).
func TestJobWordTransitions(t *testing.T) {
	tm := MustTeam(Preset("xgomptb", 1))
	frame := func() *Job { return tm.acquireJob(1, func(*Worker) {}, load.ClassBatch, load.Tenant{}) }
	phaseOf := func(j *Job) uint64 { return j.word.Load() & phaseMask }

	// reach drives a fresh inFlight frame into each phase by the
	// protocol's own transitions.
	reach := map[uint64]func(j *Job, rx receiver){
		jobPooled:     func(j *Job, _ receiver) { j.finish(); j.Release() },
		jobInFlight:   func(*Job, receiver) {},
		jobWaiting:    func(j *Job, _ receiver) { j.enterWait() }, // a waiter registered but not yet parked
		jobSubscribed: func(j *Job, rx receiver) { rx.subscribe(j) },
		jobDone:       func(j *Job, _ receiver) { j.finish() },
	}
	ops := map[string]func(j *Job, rx receiver){
		"Wait":      func(j *Job, _ receiver) { _ = j.Wait() },
		"Subscribe": func(j *Job, rx receiver) { rx.subscribe(j) },
		"Release":   func(j *Job, _ receiver) { j.Release() },
		"finish":    func(j *Job, _ receiver) { j.finish() },
		"Err":       func(j *Job, _ receiver) { _ = j.Err() },
		"Done":      func(j *Job, _ receiver) { <-j.Done() },
	}
	const (
		returns = iota // op returns at once, leaving phase want
		parks          // op moves the word to want, blocks, and returns after finish
		panics         // op panics and leaves the word alone
	)
	for _, tc := range []struct {
		from      uint64
		op        string
		how       int
		want      uint64
		tokens    int // wake tokens deposited once the op (and the finish a parks row adds) is over
		delivered int // deliveries to the subscribed receiver, counting reach's registration
	}{
		{jobPooled, "Wait", panics, jobPooled, 0, 0},
		{jobPooled, "Subscribe", panics, jobPooled, 0, 0},
		{jobPooled, "Release", returns, jobPooled, 0, 0}, // double Release
		{jobPooled, "Err", returns, jobPooled, 0, 0},
		{jobPooled, "Done", panics, jobPooled, 0, 0},

		{jobInFlight, "Wait", parks, jobWaiting, 1, 0},
		{jobInFlight, "Subscribe", returns, jobSubscribed, 0, 0},
		{jobInFlight, "Release", returns, jobInFlight, 0, 0},
		{jobInFlight, "finish", returns, jobDone, 0, 0}, // nobody registered: the Swap is the only touch
		{jobInFlight, "Err", returns, jobInFlight, 0, 0},
		{jobInFlight, "Done", parks, jobWaiting, 1, 0},

		{jobWaiting, "Wait", parks, jobWaiting, 1, 0}, // joins the registered waiters
		{jobWaiting, "Subscribe", panics, jobWaiting, 0, 0},
		{jobWaiting, "Release", returns, jobWaiting, 0, 0},
		{jobWaiting, "finish", returns, jobDone, 1, 0},
		{jobWaiting, "Err", returns, jobWaiting, 0, 0},
		{jobWaiting, "Done", parks, jobWaiting, 1, 0},

		{jobSubscribed, "Wait", panics, jobSubscribed, 0, 0},
		{jobSubscribed, "Subscribe", panics, jobSubscribed, 0, 0},
		{jobSubscribed, "Release", returns, jobSubscribed, 0, 0},
		{jobSubscribed, "finish", returns, jobDone, 0, 1},
		{jobSubscribed, "Err", returns, jobSubscribed, 0, 0},
		{jobSubscribed, "Done", panics, jobSubscribed, 0, 0},

		{jobDone, "Wait", returns, jobDone, 0, 0},
		{jobDone, "Subscribe", returns, jobDone, 0, 1}, // inline, exactly once
		{jobDone, "Release", returns, jobPooled, 0, 0},
		{jobDone, "Err", returns, jobDone, 0, 0},
		{jobDone, "Done", returns, jobDone, 0, 0}, // already closed
	} {
		name := [...]string{"pooled", "inFlight", "waiting", "subscribed", "done"}[tc.from] + "/" + tc.op
		t.Run(name, func(t *testing.T) {
			sinkKinds(t, 2, func(t *testing.T, rx receiver) {
				j := frame()
				reach[tc.from](j, rx)
				if phaseOf(j) != tc.from {
					t.Fatalf("reach left phase %d, want %d", phaseOf(j), tc.from)
				}
				gen := j.word.Load() >> phaseBits

				returned := make(chan any, 1)
				go func() {
					defer func() { returned <- recover() }()
					ops[tc.op](j, rx)
				}()
				if tc.how == parks {
					waitFor(t, func() bool { return phaseOf(j) == tc.want })
					select {
					case <-returned:
						t.Fatal("returned before finish")
					case <-time.After(10 * time.Millisecond):
					}
					j.finish()
				}
				var r any
				select {
				case r = <-returned:
				case <-time.After(5 * time.Second):
					t.Fatal("never returned")
				}
				if (r != nil) != (tc.how == panics) {
					t.Fatalf("panic = %v, want panic: %v", r, tc.how == panics)
				}
				want := tc.want
				if tc.how == parks {
					want = jobDone
				}
				if phaseOf(j) != want || j.word.Load()>>phaseBits != gen {
					t.Fatalf("word = gen %d phase %d, want gen %d phase %d", j.word.Load()>>phaseBits, phaseOf(j), gen, want)
				}
				if box, ok := rx.(*boxReceiver); ok && len(box.ob.note) != tc.delivered {
					t.Fatalf("%d outbox tokens for %d deliveries", len(box.ob.note), tc.delivered)
				}
				if len(j.wake) != tc.tokens || rx.pending() != tc.delivered {
					t.Fatalf("%d wake tokens, %d deliveries; want %d, %d", len(j.wake), rx.pending(), tc.tokens, tc.delivered)
				}
			})
		})
	}
}

// TestJobFramePoolInvariant: no frame sits in the pool in a live phase or
// twice. Release twice puts once (pool gets == puts), a rolled-back frame
// goes back pooled and comes out one generation on, and a frame put while
// live fails at the next acquire instead of being handed to two jobs.
func TestJobFramePoolInvariant(t *testing.T) {
	tm := MustTeam(Preset("xgomptb", 1))
	acquire := func() *Job { return tm.acquireJob(1, func(*Worker) {}, load.ClassBatch, load.Tenant{}) }

	j := acquire()
	j.finish()
	j.Release()
	j.Release()
	if a, b := acquire(), acquire(); a != j || b == j {
		t.Fatalf("after a double Release the pool handed out %p then %p, want %p once", a, b, j)
	}
	if s := tm.jobPool.Stats(); s.GlobalHits != 1 || s.FreshAllocs != 2 {
		t.Fatalf("pool gets: %d pooled + %d fresh, want 1 put → 1 pooled get, 2 fresh", s.GlobalHits, s.FreshAllocs)
	}

	k := acquire() // never published: the submit-rollback path
	gen := k.word.Load() >> phaseBits
	k.recycle(jobInFlight)
	if k.word.Load()&phaseMask != jobPooled {
		t.Fatal("rolled-back frame not pooled")
	}
	if got := acquire(); got != k || got.word.Load() != (gen+1)<<phaseBits|jobInFlight {
		t.Fatalf("rolled-back frame came back as %p word %#x, want %p one generation on", got, got.word.Load(), k)
	}

	tm.jobPool.PutShared(k.lane, k) // a put that bypassed recycle: k is still in flight
	defer func() {
		if r := recover(); r != "core: job frame acquired while live" {
			t.Fatalf("acquire of a live frame: recovered %v", r)
		}
	}()
	acquire()
}
