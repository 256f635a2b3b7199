package xomp_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/xomp"
)

func shardedPool(t *testing.T, shards, workersPerShard int) *xomp.ShardedPool {
	t.Helper()
	cfg := xomp.ShardConfig{
		Shards: shards,
		Team:   xomp.Preset("xgomptb+naws", workersPerShard),
	}
	cfg.Team.Backlog = 64
	return xomp.MustShardedPool(cfg)
}

func TestShardedPoolBasic(t *testing.T) {
	p := shardedPool(t, 2, 2)
	if p.Shards() != 2 || p.Workers() != 4 {
		t.Fatalf("got %d shards, %d workers; want 2, 4", p.Shards(), p.Workers())
	}

	const jobs = 64
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := p.Submit(func(w *xomp.Worker) {
				w.Spawn(func(w *xomp.Worker) { ran.Add(1) })
				w.TaskWait()
			})
			if err != nil {
				t.Error(err)
				return
			}
			if err := j.Wait(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := ran.Load(); n != jobs {
		t.Fatalf("ran %d jobs, want %d", n, jobs)
	}
	var completed uint64
	for _, s := range p.Stats() {
		completed += s.JobsCompleted
	}
	if completed != jobs {
		t.Fatalf("shards completed %d jobs total, want %d", completed, jobs)
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if _, err := p.Submit(func(w *xomp.Worker) {}); !errors.Is(err, xomp.ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if _, err := p.SubmitTo(0, func(w *xomp.Worker) {}); !errors.Is(err, xomp.ErrClosed) {
		t.Fatalf("SubmitTo after Close = %v, want ErrClosed", err)
	}
}

func TestShardedPoolSubmitToBounds(t *testing.T) {
	p := shardedPool(t, 2, 1)
	defer p.Close()
	if _, err := p.SubmitTo(-1, func(w *xomp.Worker) {}); err == nil {
		t.Fatal("SubmitTo(-1) accepted")
	}
	if _, err := p.SubmitTo(2, func(w *xomp.Worker) {}); err == nil {
		t.Fatal("SubmitTo(Shards()) accepted")
	}
}

// TestShardedPoolDispatchSpreads submits uniform jobs through the
// power-of-two-choices dispatcher and checks the work does not collapse
// onto a single shard.
func TestShardedPoolDispatchSpreads(t *testing.T) {
	p := shardedPool(t, 4, 1)
	defer p.Close()
	const jobs = 200
	handles := make([]*xomp.Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := p.Submit(func(w *xomp.Worker) { time.Sleep(50 * time.Microsecond) })
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, j)
	}
	for _, j := range handles {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	busy := 0
	for _, s := range p.Stats() {
		if s.JobsCompleted > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("%d jobs landed on %d shard(s); dispatcher is not spreading", jobs, busy)
	}
}

// TestShardedPoolSkewedMigration is the cross-shard migration scenario:
// every submission pins shard 0 while its workers are parked, so only the
// background balancer can make progress. While shard 1's workers are
// parked too, both shards are busy and nothing moves; once they are
// released, every queued job must move off the hot shard with no manual
// call, complete exactly once on shard 1, and a panicking job must stay
// isolated to its own handle across migration.
func TestShardedPoolSkewedMigration(t *testing.T) {
	p := shardedPool(t, 2, 2)
	defer p.Close()

	// Park both shards' workers. The deferred releases run before the
	// deferred Close, so a failing test still shuts down.
	hold := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	defer close(hold[0])
	release1 := sync.OnceFunc(func() { close(hold[1]) })
	defer release1()
	var parked sync.WaitGroup
	parked.Add(4)
	for s := 0; s < 2; s++ {
		for i := 0; i < 2; i++ {
			if _, err := p.SubmitTo(s, func(w *xomp.Worker) {
				parked.Done()
				<-hold[s]
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	parked.Wait()

	const jobs = 12
	const badJob = 5
	var ran atomic.Int64
	handles := make([]*xomp.Job, jobs)
	for i := range handles {
		i := i
		j, err := p.SubmitTo(0, func(w *xomp.Worker) {
			ran.Add(1)
			if i == badJob {
				panic("skewed job panic")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = j
	}
	if st := p.Stats(); st[0].QueueDepth != jobs || st[0].MigratedOut != 0 {
		t.Fatalf("hot shard queue depth %d, migrated out %d with both shards busy; want %d, 0",
			st[0].QueueDepth, st[0].MigratedOut, jobs)
	}

	// Free shard 1. The hot shard's workers stay parked throughout, so
	// completions prove the jobs moved.
	release1()
	for i, j := range handles {
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %d: the balancer never drained the hot shard: stats %+v", i, p.Stats())
		}
		err := j.Wait()
		if i == badJob {
			var pe *xomp.PanicError
			if !errors.As(err, &pe) || pe.Value != "skewed job panic" {
				t.Fatalf("job %d: err = %v, want PanicError(skewed job panic)", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !j.Migrated() {
			t.Fatalf("job %d completed without migrating off the parked shard", i)
		}
	}
	if n := ran.Load(); n != jobs {
		t.Fatalf("job bodies ran %d times, want exactly %d", n, jobs)
	}
	st := p.Stats()
	if st[0].MigratedOut != jobs || st[1].MigratedIn != jobs {
		t.Fatalf("migration counters out=%d in=%d, want %d/%d",
			st[0].MigratedOut, st[1].MigratedIn, jobs, jobs)
	}
}

// TestShardedPoolBackgroundBalancer runs the timer-driven balancer against
// a parked hot shard beside an idle one: the queued jobs must drain with
// no manual call.
func TestShardedPoolBackgroundBalancer(t *testing.T) {
	p := shardedPool(t, 2, 2)
	defer p.Close()

	hold := make(chan struct{})
	defer close(hold)
	var parked sync.WaitGroup
	parked.Add(2)
	for i := 0; i < 2; i++ {
		if _, err := p.SubmitTo(0, func(w *xomp.Worker) {
			parked.Done()
			<-hold
		}); err != nil {
			t.Fatal(err)
		}
	}
	parked.Wait()

	const jobs = 8
	done := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		j, err := p.SubmitTo(0, func(w *xomp.Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		go func() { done <- j.Wait() }()
	}
	for i := 0; i < jobs; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("background balancer never drained the hot shard: stats %+v", p.Stats())
		}
	}
}

// TestShardedPoolAutoShards derives the shard layout from a topology: one
// shard per zone, each sized to its zone.
func TestShardedPoolAutoShards(t *testing.T) {
	cfg := xomp.ShardConfig{Team: xomp.Preset("xgomptb", 0)}
	cfg.Team.Topology = xomp.SyntheticTopology(6, 3)
	p := xomp.MustShardedPool(cfg)
	defer p.Close()
	if p.Shards() != 3 || p.Workers() != 6 {
		t.Fatalf("got %d shards, %d workers; want 3, 6", p.Shards(), p.Workers())
	}
	for s := 0; s < p.Shards(); s++ {
		if n := p.Team(s).Workers(); n != 2 {
			t.Fatalf("shard %d has %d workers, want 2", s, n)
		}
	}
	j, err := p.Submit(func(w *xomp.Worker) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedPoolExplicitShardTopology pins the topology rule of explicit
// Shards: a set Team.Topology is every shard's; unset, one shard detects
// its topology as a Team does, and two or more run on one zone each.
func TestShardedPoolExplicitShardTopology(t *testing.T) {
	cfg := xomp.Preset("xgomptb", 4)
	cfg.Topology = xomp.SyntheticTopology(4, 2)
	one := xomp.MustShardedPool(xomp.ShardConfig{Shards: 1, Team: cfg})
	defer one.Close()
	if z := one.Team(0).Topology().Zones; z != 2 {
		t.Errorf("one shard on a two-zone Team.Topology reports %d zones, want 2", z)
	}

	detected := xomp.MustPool(xomp.Preset("xgomptb", 4))
	defer detected.Close()
	if z, want := detected.Team(0).Topology().Zones, xomp.DetectTopology(4).Zones; z != want {
		t.Errorf("one shard without a topology reports %d zones, want the detected %d", z, want)
	}

	two := xomp.MustShardedPool(xomp.ShardConfig{Shards: 2, Team: xomp.Preset("xgomptb", 4)})
	defer two.Close()
	for s := 0; s < two.Shards(); s++ {
		if z := two.Team(s).Topology().Zones; z != 1 {
			t.Errorf("shard %d of two without a topology reports %d zones, want 1", s, z)
		}
	}
}

func TestShardedPoolConfigErrors(t *testing.T) {
	if _, err := xomp.NewShardedPool(xomp.ShardConfig{Shards: -1}); err == nil {
		t.Fatal("negative Shards accepted")
	}
	mismatched := xomp.Preset("xgomptb", 2)
	mismatched.Topology = xomp.SyntheticTopology(4, 2)
	if _, err := xomp.NewPool(mismatched); err == nil {
		t.Fatal("Team.Topology covering other than Team.Workers accepted")
	}
	if _, err := xomp.NewShardedPool(xomp.ShardConfig{}); err == nil {
		t.Fatal("unsized pool accepted")
	}
}
