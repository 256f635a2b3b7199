package xomp_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prof"
	"repro/xomp"
)

// SubmitCtx round trip on the one-shard pool: classes recorded, deadline
// honored, typed errors surfaced through the public API.
func TestPoolSubmitCtx(t *testing.T) {
	cfg := xomp.Preset("xgomptb", 2)
	cfg.Backlog = 1
	pool := xomp.MustPool(cfg)
	defer pool.Close()

	j, err := pool.SubmitCtx(context.Background(), func(*xomp.Worker) {},
		xomp.SubmitOpts{Priority: xomp.ClassInteractive})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	var class xomp.Class = -1
	for _, r := range pool.Team(0).Profile().Jobs() {
		if r.ID == j.ID() {
			class = xomp.Class(r.Class)
		}
	}
	if class != xomp.ClassInteractive {
		t.Fatalf("job class %v, want interactive", class)
	}

	// Wedge the pool, fill the batch backlog, and prove both unblocking
	// paths work through the public wrapper.
	gate := make(chan struct{})
	defer close(gate)
	var started atomic.Int64
	for i := 0; i < 2; i++ {
		if _, err := pool.Submit(func(*xomp.Worker) { started.Add(1); <-gate }); err != nil {
			t.Fatal(err)
		}
	}
	for started.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	if _, err := pool.Submit(func(*xomp.Worker) {}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	if _, err := pool.SubmitCtx(ctx, func(*xomp.Worker) {},
		xomp.SubmitOpts{Priority: xomp.ClassBatch}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SubmitCtx: %v, want context.Canceled", err)
	}
	if _, err := pool.SubmitCtx(context.Background(), func(*xomp.Worker) {},
		xomp.SubmitOpts{Priority: xomp.ClassBatch, Deadline: time.Now().Add(20 * time.Millisecond)}); !errors.Is(err, xomp.ErrDeadlineExceeded) {
		t.Fatalf("deadlined SubmitCtx: %v, want ErrDeadlineExceeded", err)
	}
}

// RejectWhenFull through the pool: the typed ErrBacklogFull reaches the
// caller, and the per-class counters land on the profile snapshot.
func TestPoolRejectWhenFull(t *testing.T) {
	cfg := xomp.Preset("xgomptb", 1)
	cfg.Backlog = 1
	cfg.Admit = xomp.RejectWhenFull{}
	pool := xomp.MustPool(cfg)
	defer pool.Close()

	gate := make(chan struct{})
	defer close(gate)
	var started atomic.Int64
	if _, err := pool.Submit(func(*xomp.Worker) { started.Add(1); <-gate }); err != nil {
		t.Fatal(err)
	}
	for started.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	if _, err := pool.Submit(func(*xomp.Worker) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Submit(func(*xomp.Worker) {}); !errors.Is(err, xomp.ErrBacklogFull) {
		t.Fatalf("full backlog: %v, want ErrBacklogFull", err)
	}
	snap := pool.Team(0).Profile().Snapshot()
	if snap.AdmitCounts[int(xomp.ClassBatch)][2] != 0 { // no sheds
		t.Fatalf("unexpected shed count in %v", snap.AdmitCounts)
	}
	if snap.AdmitCounts[int(xomp.ClassBatch)][1] != 1 { // one reject
		t.Fatalf("REJECT count %v, want 1", snap.AdmitCounts[int(xomp.ClassBatch)])
	}
}

// ShardedPool.SubmitCtx: mixed-class traffic across shards completes,
// classes survive dispatch (core's TestMigratePreservesClass covers
// migration), and a batch
// flood cannot stop interactive admission anywhere — the pool-level
// priority-inversion guard.
func TestShardedPoolSubmitCtxPriority(t *testing.T) {
	pool := xomp.MustShardedPool(xomp.ShardConfig{
		Shards: 2,
		Team: func() xomp.Config {
			c := xomp.Preset("xgomptb", 2)
			c.Backlog = 2
			return c
		}(),
	})
	defer pool.Close()

	// Flood every shard's batch queue to the brim with gated work. Every
	// worker is busy before any queue forms: the balancer moves a queued
	// job only to a shard with an idle worker, so once none is left it
	// cannot fill a shard ahead of the flood pinned there, which would
	// then wait on the gate forever.
	gate := make(chan struct{})
	var floods []*xomp.Job
	var once sync.Once
	defer func() { once.Do(func() { close(gate) }) }()
	var busy sync.WaitGroup
	busy.Add(2 * pool.Shards())
	flood := func(s int, body func(*xomp.Worker)) {
		j, err := pool.SubmitTo(s, body)
		if err != nil {
			t.Fatal(err)
		}
		floods = append(floods, j)
	}
	for s := 0; s < pool.Shards(); s++ {
		for i := 0; i < 2; i++ { // one per worker
			flood(s, func(*xomp.Worker) { busy.Done(); <-gate })
		}
	}
	busy.Wait()
	for s := 0; s < pool.Shards(); s++ {
		for i := 0; i < 2; i++ { // the backlog
			flood(s, func(*xomp.Worker) { <-gate })
		}
	}
	// Interactive submissions must still be admitted promptly on every
	// shard even though every batch queue is full and every worker busy.
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := pool.SubmitCtx(ctx, func(*xomp.Worker) {},
			xomp.SubmitOpts{Priority: xomp.ClassInteractive})
		cancel()
		if err != nil {
			t.Fatalf("interactive submission %d under batch flood: %v", i, err)
		}
	}
	var admitted uint64
	for s := 0; s < pool.Shards(); s++ {
		admitted += pool.Team(s).Profile().AdmitCount(int(xomp.ClassInteractive), prof.AdmitAdmitted)
	}
	if admitted != 4 {
		t.Fatalf("%d submissions admitted as interactive, want 4", admitted)
	}
	once.Do(func() { close(gate) })
	for _, j := range floods {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// Mixed-class churn across a sharded pool under -race: everything
// completes, per-shard class gauges drain to zero.
func TestShardedPoolMixedClassChurn(t *testing.T) {
	pool := xomp.MustShardedPool(xomp.ShardConfig{
		Shards: 2,
		Team:   xomp.Preset("xgomptb+naws", 2),
	})
	var wg sync.WaitGroup
	var ok atomic.Int64
	const submitters = 4
	const jobsPer = 25
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < jobsPer; k++ {
				opts := xomp.SubmitOpts{Priority: xomp.Class(k % int(xomp.NumClasses))}
				j, err := pool.SubmitCtx(context.Background(), func(w *xomp.Worker) {
					w.Spawn(func(*xomp.Worker) {})
					w.TaskWait()
				}, opts)
				if err != nil {
					t.Errorf("submitter %d: %v", s, err)
					return
				}
				if err := j.Wait(); err != nil {
					t.Error(err)
					return
				}
				ok.Add(1)
			}
		}(s)
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ok.Load(); got != submitters*jobsPer {
		t.Fatalf("%d jobs ok, want %d", got, submitters*jobsPer)
	}
	for s := 0; s < pool.Shards(); s++ {
		p := pool.Team(s).Profile()
		for c := 0; c < int(xomp.NumClasses); c++ {
			if d := p.ClassQueued(c); d != 0 {
				t.Fatalf("shard %d class %d gauge %d after Close, want 0", s, c, d)
			}
		}
	}
}
