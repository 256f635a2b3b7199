package xomp_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prof"
	"repro/xomp"
)

// TestPoolSubmitBatch: the pool-level batch wrapper admits everything and
// the handles behave like single submissions.
func TestPoolSubmitBatch(t *testing.T) {
	pool := xomp.MustPool(xomp.Preset("xgomptb", 2))
	defer pool.Close()
	const n = 24
	var ran atomic.Int64
	fns := make([]xomp.TaskFunc, n)
	for i := range fns {
		fns[i] = func(*xomp.Worker) { ran.Add(1) }
	}
	res, err := pool.SubmitBatch(fns)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if err := r.Job.Wait(); err != nil {
			t.Fatal(err)
		}
		r.Job.Release()
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d of %d", got, n)
	}
}

// TestShardedPoolSubmitBatchAccounting: a batch through the sharded pool
// spreads over shards in dispatch chunks, and each shard's own admission
// accounting (admitted counters, completions, drained gauges) covers
// exactly the jobs it received — the batch path never books a job on a
// shard that did not admit it.
func TestShardedPoolSubmitBatchAccounting(t *testing.T) {
	pool := xomp.MustShardedPool(xomp.ShardConfig{
		Shards: 2,
		Team:   xomp.Preset("xgomptb", 2),
	})
	defer pool.Close()
	const n = 64
	var ran atomic.Int64
	items := make([]xomp.BatchItem, n)
	for i := range items {
		items[i] = xomp.BatchItem{Fn: func(*xomp.Worker) { ran.Add(1) }}
	}
	res := make([]xomp.BatchResult, n)
	if err := pool.SubmitBatchCtx(context.Background(), items, res); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if err := r.Job.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d of %d", got, n)
	}
	var admitted, completed, migrated uint64
	for s := 0; s < pool.Shards(); s++ {
		p := pool.Team(s).Profile()
		for c := 0; c < int(xomp.NumClasses); c++ {
			admitted += p.AdmitCount(c, prof.AdmitAdmitted)
		}
		completed += p.JobsTotal()
		in, _ := p.JobsMigrated()
		migrated += in
		if d := pool.Team(s).QueueDepth(); d != 0 {
			t.Fatalf("shard %d queue depth %d after drain, want 0", s, d)
		}
		if a := pool.Team(s).ActiveJobs(); a != 0 {
			t.Fatalf("shard %d active jobs %d after drain, want 0", s, a)
		}
	}
	if admitted != n {
		t.Fatalf("admitted %d across shards, want %d", admitted, n)
	}
	// Completions must cover the batch; the balancer may additionally
	// move jobs, which shifts the completion between shards but never
	// changes the total.
	if completed != n {
		t.Fatalf("completed %d across shards, want %d (migrated in: %d)", completed, n, migrated)
	}
}

// TestShardedPoolOneShardBatchParity pins that a one-shard pool passing a
// batch to its team whole changes nothing a caller can see: the same
// batch admitted in dispatch chunks of 8 (what a multi-shard pool does,
// driven here through the shard's own SubmitBatchInto) yields the same
// outcome item by item — under reject admission on a wedged team, where
// the ring's bound decides who gets in, and under block admission on a
// live one, where everything valid does.
func TestShardedPoolOneShardBatchParity(t *testing.T) {
	const chunk, backlog = 8, 4
	noop := func(*xomp.Worker) {}
	items := make([]xomp.BatchItem, 40)
	for i := range items {
		items[i] = xomp.BatchItem{Fn: noop, Opts: xomp.SubmitOpts{Tenant: xomp.Tenant{ID: i % 3}}}
	}
	items[1].Fn = nil
	items[2].Opts.Priority = xomp.NumClasses
	items[5].Opts.Deadline = time.Now().Add(-time.Second)
	items[9].Opts.Priority = xomp.ClassInteractive
	items[20].Opts.Priority = xomp.ClassInteractive
	items[33].Opts.Tenant.Weight = -1

	outcome := func(r xomp.BatchResult) string {
		for _, e := range []error{xomp.ErrInvalid, xomp.ErrDeadlineExceeded, xomp.ErrBacklogFull} {
			if errors.Is(r.Err, e) {
				return e.Error()
			}
		}
		if r.Err != nil || r.Job == nil {
			return fmt.Sprintf("unexpected (%v, %v)", r.Job, r.Err)
		}
		return "admitted"
	}
	for _, tc := range []struct {
		name  string
		admit xomp.AdmitPolicy
		wedge bool
	}{
		{"reject on a wedged team", xomp.RejectWhenFull{}, true},
		{"block on a live team", xomp.BlockWhenFull{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(whole bool) []string {
				team := xomp.Preset("xgomptb", 1)
				team.Backlog = backlog
				team.Admit = tc.admit
				pool := xomp.MustShardedPool(xomp.ShardConfig{Shards: 1, Team: team})
				defer pool.Close()
				gate := make(chan struct{})
				defer close(gate)
				if tc.wedge {
					started := make(chan struct{})
					if _, err := pool.Submit(func(*xomp.Worker) { close(started); <-gate }); err != nil {
						t.Fatal(err)
					}
					<-started
				}
				res := make([]xomp.BatchResult, len(items))
				if whole {
					if err := pool.SubmitBatchCtx(context.Background(), items, res); err != nil {
						t.Fatal(err)
					}
				} else {
					for off := 0; off < len(items); off += chunk {
						if err := pool.Team(0).SubmitBatchInto(context.Background(), items[off:off+chunk], res[off:off+chunk]); err != nil {
							t.Fatal(err)
						}
					}
				}
				out := make([]string, len(res))
				for i, r := range res {
					out[i] = outcome(r)
				}
				return out
			}
			whole, chunked := run(true), run(false)
			admitted := 0
			for i := range whole {
				if whole[i] != chunked[i] {
					t.Fatalf("item %d: %q passed whole, %q in chunks of %d", i, whole[i], chunked[i], chunk)
				}
				if whole[i] == "admitted" {
					admitted++
				}
			}
			// 36 valid items: 2 interactive and 34 batch, each class ring 4 deep.
			want := 36
			if tc.wedge {
				want = 2 + backlog
			}
			if admitted != want {
				t.Fatalf("%d items admitted, want %d", admitted, want)
			}
		})
	}
}

// TestSubmitBatchCtxAllocationFree: a caller that keeps its item, result
// and drain slices admits a batch, subscribes every job to an Outbox and
// releases the drain without allocating — a 1-item batch (rpc-noop's
// frame) and a 64-item batch (pipe-noop-b64's) alike.
func TestSubmitBatchCtxAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	cfg := xomp.Preset("xgomptb", 2)
	cfg.Backlog = 256 // no overflow run: parking one allocates by design
	pool := xomp.MustPool(cfg)
	defer pool.Close()
	ob := xomp.NewOutbox()
	noop := func(*xomp.Worker) {}
	for _, n := range []int{1, 64} {
		items := make([]xomp.BatchItem, n)
		for i := range items {
			items[i] = xomp.BatchItem{Fn: noop}
		}
		res := make([]xomp.BatchResult, n)
		drain := make([]*xomp.Job, 0, n)
		round := func() {
			if err := pool.SubmitBatchCtx(context.Background(), items, res); err != nil {
				t.Fatal(err)
			}
			for i := range res {
				if res[i].Err != nil {
					t.Fatal(res[i].Err)
				}
				res[i].Job.SubscribeTo(ob)
			}
			for drain = drain[:0]; len(drain) < n; {
				<-ob.Note()
				drain = ob.Take(drain)
			}
			xomp.ReleaseJobs(drain)
		}
		round() // warm the frame pool
		if got := testing.AllocsPerRun(50, round); got != 0 {
			t.Errorf("%d-item batch: %v allocations per round, want 0", n, got)
		}
	}
}
