package xomp

import (
	"sync"
	"testing"
	"time"

	"repro/internal/load"
)

func twoShardPool(t *testing.T) *ShardedPool {
	t.Helper()
	cfg := ShardConfig{Shards: 2, Team: Preset("xgomptb+naws", 2)}
	cfg.Team.Backlog = 64
	return MustShardedPool(cfg)
}

// TestShardedPoolTickAllocs pins the balancer's tick at zero allocations:
// it snapshots into the slice its goroutine owns and runs a plan with no
// state, 5 000 times a second on a two-shard pool.
func TestShardedPoolTickAllocs(t *testing.T) {
	p := twoShardPool(t)
	defer p.Close()
	sig := make([]load.Signals, p.Shards())
	if got := testing.AllocsPerRun(100, func() { p.rebalance(sig) }); got != 0 {
		t.Fatalf("one balancer tick allocates %.1f times, want 0", got)
	}
}

// TestShardedPoolBusyShardsTradeNothing: with every worker of both shards
// busy and a queue on each, no shard has an idle worker to receive a job,
// so neither the background tick nor 50 explicit ticks move anything.
func TestShardedPoolBusyShardsTradeNothing(t *testing.T) {
	p := twoShardPool(t)
	defer p.Close()
	hold := make(chan struct{})
	defer close(hold)
	var busy sync.WaitGroup
	busy.Add(4)
	for s := 0; s < 2; s++ {
		for i := 0; i < 2; i++ {
			if _, err := p.SubmitTo(s, func(*Worker) { busy.Done(); <-hold }); err != nil {
				t.Fatal(err)
			}
		}
	}
	busy.Wait()
	for s := 0; s < 2; s++ {
		for i := 0; i < 3*(s+1); i++ {
			if _, err := p.SubmitTo(s, func(*Worker) {}); err != nil {
				t.Fatal(err)
			}
		}
	}

	sig := make([]load.Signals, p.Shards())
	for tick := 0; tick < 50; tick++ {
		if n := p.rebalance(sig); n != 0 {
			t.Fatalf("tick %d moved %d jobs between two busy shards", tick, n)
		}
		time.Sleep(balanceTick)
	}
	for _, st := range p.Stats() {
		if st.MigratedOut != 0 || st.MigratedIn != 0 {
			t.Fatalf("shard %d migrated out %d, in %d between two busy shards: %+v",
				st.Shard, st.MigratedOut, st.MigratedIn, p.Stats())
		}
	}
}
