package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubscribeDeliversEachJobOnce: many jobs multiplexed onto one
// receiver each arrive exactly once, carrying the tag set at submission —
// the network edge's writer-goroutine pattern, on both sink kinds.
func TestSubscribeDeliversEachJobOnce(t *testing.T) {
	const n = 100
	sinkKinds(t, n, func(t *testing.T, rx receiver) {
		tm := admitTeam(t, 2, 128, nil)
		defer tm.Close()
		for i := 0; i < n; i++ {
			j, err := tm.Submit(func(*Worker) {})
			if err != nil {
				t.Fatal(err)
			}
			j.SetTag(uint64(i) + 1)
			rx.subscribe(j)
		}
		seen := make(map[uint64]bool, n)
		for i := 0; i < n; i++ {
			j := rx.recv(5 * time.Second)
			if j == nil {
				t.Fatalf("delivery %d never arrived", i)
			}
			tag := j.Tag()
			if tag == 0 || tag > n {
				t.Fatalf("tag %d outside submitted range", tag)
			}
			if seen[tag] {
				t.Fatalf("tag %d delivered twice", tag)
			}
			seen[tag] = true
			if !j.done() {
				t.Fatal("delivered job not done")
			}
			j.Release()
		}
		if j := rx.recv(10 * time.Millisecond); j != nil {
			t.Fatalf("spurious extra delivery, tag %d", j.Tag())
		}
	})
}

// TestSubscribeAfterCompletion: subscribing a job that already finished
// delivers it from Subscribe itself, still exactly once.
func TestSubscribeAfterCompletion(t *testing.T) {
	sinkKinds(t, 1, func(t *testing.T, rx receiver) {
		tm := admitTeam(t, 2, 16, nil)
		defer tm.Close()
		j, err := tm.Submit(func(*Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		rx.subscribe(j)
		if got := rx.recv(time.Second); got != j {
			t.Fatalf("delivered %v, want the completed job", got)
		}
		j.Release()
	})
}

// TestSubscribeRaceWithFinish hammers the Subscribe/finish interleaving:
// subscribing concurrently with completion must deliver exactly once,
// never zero, never twice (the Dekker hand-off between the two CAS
// sides). Run with -race.
func TestSubscribeRaceWithFinish(t *testing.T) {
	sinkKinds(t, 1, func(t *testing.T, rx receiver) {
		tm := admitTeam(t, 4, 64, nil)
		defer tm.Close()
		const rounds = 500
		for r := 0; r < rounds; r++ {
			j, err := tm.Submit(func(*Worker) {})
			if err != nil {
				t.Fatal(err)
			}
			j.SetTag(uint64(r) + 1)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rx.subscribe(j)
			}()
			got := rx.recv(5 * time.Second)
			if got == nil {
				t.Fatalf("round %d: delivery lost", r)
			}
			if got.Tag() != uint64(r)+1 {
				t.Fatalf("round %d: delivered tag %d", r, got.Tag())
			}
			wg.Wait()
			j.Release()
		}
	})
}

// TestTagResetsOnRecycle: a recycled frame must not leak the previous
// generation's tag or subscription into the next submission.
func TestTagResetsOnRecycle(t *testing.T) {
	sinkKinds(t, 1, func(t *testing.T, rx receiver) {
		tm := admitTeam(t, 1, 16, nil)
		defer tm.Close()
		j, err := tm.Submit(func(*Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		j.SetTag(777)
		rx.subscribe(j)
		if rx.recv(5*time.Second) != j {
			t.Fatal("subscribed job not delivered")
		}
		j.Release()

		// Drive enough submissions that the recycled frame comes back around.
		for i := 0; i < 64; i++ {
			k, err := tm.Submit(func(*Worker) {})
			if err != nil {
				t.Fatal(err)
			}
			if k.Tag() != 0 {
				t.Fatal("recycled frame leaked a stale tag")
			}
			if err := k.Wait(); err != nil {
				t.Fatal(err)
			}
			k.Release()
		}
		if k := rx.recv(10 * time.Millisecond); k != nil {
			t.Fatalf("recycled frame leaked a stale subscription (tag %d)", k.Tag())
		}
	})
}

// TestSubscribeRecycleGenerations: the finish/Subscribe hand-off must
// be atomic with completion publication. A finish whose final touches
// (the wake-token deposit, the outbox link) trailed an inline delivery
// would corrupt the frame's NEXT generation once the receiver Releases
// and the frame recycles — a stale wake token makes the next Wait
// return on an in-flight job, a stale sink steals the next
// subscription. Hammer deliver → release → resubmit on a small pool so
// frames recycle immediately, asserting every generation's completion
// is observed exactly once and only when actually done. Run with -race.
func TestSubscribeRecycleGenerations(t *testing.T) {
	sinkKinds(t, 1, func(t *testing.T, rx receiver) {
		tm := admitTeam(t, 2, 16, nil)
		defer tm.Close()
		const rounds = 2000
		for r := 0; r < rounds; r++ {
			j, err := tm.Submit(func(*Worker) {})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rx.subscribe(j) // races finish: inline or worker-side delivery
			}()
			got := rx.recv(5 * time.Second)
			if got == nil || !got.done() {
				t.Fatalf("round %d: delivery lost, or delivered job still in flight", r)
			}
			wg.Wait()
			got.Release()

			// The recycled frame's next generation must not inherit the
			// previous finish's wake token or subscription.
			var ran atomic.Bool
			k, err := tm.Submit(func(*Worker) { ran.Store(true) })
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Wait(); err != nil {
				t.Fatal(err)
			}
			if !k.done() || !ran.Load() {
				t.Fatalf("round %d: Wait returned on an in-flight job (stale wake token)", r)
			}
			if rx.pending() != 0 {
				t.Fatalf("round %d: stale subscription delivered a job", r)
			}
			k.Release()
		}
	})
}

// TestWaitRecycleGenerations is TestSubscribeRecycleGenerations for the
// Wait/Release path. finish publishes jobDone before it deposits the
// wake token, so a waiter sweeping a batch can take Wait's fast path on
// a job whose finish is still mid-section; if Release recycled the frame
// right then, the late token would land in the frame's next generation —
// whose Wait then returns on an in-flight job, and whose own finish
// blocks forever on the full one-slot channel. Hammer submit → Wait →
// Release → resubmit on a small pool so frames recycle immediately:
// every generation's Wait must return only once the job is done and its
// body ran, and Close must return.
func TestWaitRecycleGenerations(t *testing.T) {
	tm := admitTeam(t, 2, 64, nil)
	const (
		rounds = 2000
		batch  = 16
	)
	var ran [batch]atomic.Int64
	fns := make([]TaskFunc, batch)
	for i := range fns {
		fns[i] = func(*Worker) { ran[i].Add(1) }
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for r := 1; r <= rounds; r++ {
			res, err := submitBatch(context.Background(), tm, batchOf(fns))
			if err != nil {
				t.Error(err)
				return
			}
			for i, br := range res {
				if br.Err != nil {
					t.Errorf("round %d item %d: %v", r, i, br.Err)
					return
				}
				if err := br.Job.Wait(); err != nil {
					t.Error(err)
					return
				}
				if !br.Job.done() || ran[i].Load() != int64(r) {
					t.Errorf("round %d item %d: Wait returned on an in-flight job (stale wake token)", r, i)
					return
				}
				br.Job.Release()
			}
		}
		if err := tm.Close(); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("submit/Wait/Release loop or Close hung: a finish is blocked on a recycled frame's full wake channel")
	}
}

// TestPollRecycleGenerations is the same hammer for a party finish cannot
// see: a poller that never registers (it spins on done/Err only), Releases
// the instant it observes done and resubmits. finish displaced inFlight, so
// its Swap must have been its last touch on the frame — under -race any
// later one collides with recycle's and resetForSubmit's plain writes.
func TestPollRecycleGenerations(t *testing.T) {
	tm := admitTeam(t, 2, 64, nil)
	defer tm.Close()
	const (
		rounds = 2000
		batch  = 16
	)
	var ran [batch]atomic.Int64
	fns := make([]TaskFunc, batch)
	for i := range fns {
		fns[i] = func(*Worker) { ran[i].Add(1) }
	}
	deadline := time.Now().Add(60 * time.Second)
	for r := 1; r <= rounds; r++ {
		res, err := submitBatch(context.Background(), tm, batchOf(fns))
		if err != nil {
			t.Fatal(err)
		}
		for i, br := range res {
			if br.Err != nil {
				t.Fatalf("round %d item %d: %v", r, i, br.Err)
			}
			for !br.Job.done() {
				if br.Job.Err() != nil || time.Now().After(deadline) {
					t.Fatalf("round %d item %d: Err on an in-flight job, or it never finished", r, i)
				}
				runtime.Gosched()
			}
			if ran[i].Load() != int64(r) {
				t.Fatalf("round %d item %d: done before its body ran", r, i)
			}
			br.Job.Release()
		}
	}
}
