package xomp_test

import (
	"sync"
	"testing"
	"time"

	"repro/xomp"
)

// TestShardedPoolAdaptiveShards: every shard team can run the adaptive
// policy independently; the pool serves traffic normally and exposes each
// shard's policy trace.
func TestShardedPoolAdaptiveShards(t *testing.T) {
	team := xomp.Preset("xgomptb", 2)
	team.Policy = xomp.Policy{Name: "adaptive", Interval: time.Millisecond, Hysteresis: 2}
	pool := xomp.MustShardedPool(xomp.ShardConfig{Shards: 2, Team: team})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		j, err := pool.Submit(func(w *xomp.Worker) {
			for k := 0; k < 200; k++ {
				w.Spawn(func(*xomp.Worker) {})
			}
			w.TaskWait()
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); j.Wait() }()
	}
	wg.Wait()
	// The trace accessor works per shard (switches are load-dependent,
	// so only their well-formedness is asserted).
	for s := 0; s < pool.Shards(); s++ {
		for _, sw := range pool.Team(s).PolicyTrace() {
			if sw.To == "" || sw.From == "" {
				t.Fatalf("shard %d malformed switch %+v", s, sw)
			}
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolSignalsAndPolicyTrace(t *testing.T) {
	cfg := xomp.Preset("xgomptb+naws", 2)
	cfg.Policy = xomp.Policy{Name: "adaptive", Interval: -1}
	pool := xomp.MustPool(cfg)
	defer pool.Close()
	if got := pool.Team(0).Signals().Capacity; got != 2 {
		t.Fatalf("Capacity = %v, want 2", got)
	}
	if trace := pool.Team(0).PolicyTrace(); len(trace) != 0 {
		t.Fatalf("fresh pool has policy trace %+v", trace)
	}
}
