package xomp_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/xomp"
)

// recordingDispatch pins every job to one shard and counts invocations,
// proving the dispatcher consults the injected policy (and only signals,
// not team internals — the Pick signature admits nothing else).
type recordingDispatch struct {
	target int
	calls  atomic.Int64
}

func (d *recordingDispatch) Pick(r uint64, n int, _ xomp.Class, sig func(int) xomp.Signals) int {
	d.calls.Add(1)
	for i := 0; i < n; i++ {
		_ = sig(i) // signals must be readable for every shard
	}
	return d.target
}

func TestShardedPoolCustomDispatchPolicy(t *testing.T) {
	disp := &recordingDispatch{target: 1}
	pool := xomp.MustShardedPool(xomp.ShardConfig{
		Shards:          2,
		Team:            xomp.Preset("xgomptb", 2),
		BalanceInterval: -1, // no background migration: placement stays observable
		Policy:          xomp.ShardPolicy{Dispatch: disp},
	})
	var wg sync.WaitGroup
	const jobs = 16
	for i := 0; i < jobs; i++ {
		j, err := pool.Submit(func(*xomp.Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); j.Wait() }()
	}
	wg.Wait()
	stats := pool.Stats()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if got := disp.calls.Load(); got != jobs {
		t.Fatalf("dispatch policy consulted %d times, want %d", got, jobs)
	}
	if stats[0].JobsCompleted != 0 || stats[1].JobsCompleted != jobs {
		t.Fatalf("policy pinning ignored: %+v", stats)
	}
}

// recordingMigrate forwards to the default plan but records the signal
// snapshots it was shown.
type recordingMigrate struct {
	mu    sync.Mutex
	seen  [][]xomp.Signals
	inner xomp.GapHalving
}

func (m *recordingMigrate) Plan(shards []xomp.Signals) (from, to, n int) {
	m.mu.Lock()
	m.seen = append(m.seen, append([]xomp.Signals(nil), shards...))
	m.mu.Unlock()
	return m.inner.Plan(shards)
}

func TestShardedPoolCustomMigratePolicy(t *testing.T) {
	mig := &recordingMigrate{inner: xomp.GapHalving{Threshold: 2}}
	pool := xomp.MustShardedPool(xomp.ShardConfig{
		Shards:          2,
		Team:            xomp.Preset("xgomptb", 1),
		BalanceInterval: -1,
		Policy:          xomp.ShardPolicy{Migrate: mig},
	})
	defer pool.Close()
	// A manual scan must consult the policy with one Signals per shard.
	pool.Rebalance()
	mig.mu.Lock()
	defer mig.mu.Unlock()
	if len(mig.seen) != 1 || len(mig.seen[0]) != 2 {
		t.Fatalf("migrate policy saw %+v", mig.seen)
	}
	if got := mig.seen[0][0].Capacity; got != 1 {
		t.Fatalf("shard capacity signal = %v, want 1", got)
	}
}

// vetoQuota refuses every move; the elastic controller must then never
// reassign quota no matter the imbalance.
type vetoQuota struct{ calls atomic.Int64 }

func (q *vetoQuota) Plan(shards []xomp.Signals, min, max []int) (from, to int, ok bool) {
	q.calls.Add(1)
	return 0, 0, false
}

func TestShardedPoolCustomQuotaPolicy(t *testing.T) {
	veto := &vetoQuota{}
	pool := xomp.MustShardedPool(xomp.ShardConfig{
		Shards:          2,
		Team:            xomp.Preset("xgomptb", 2),
		BalanceInterval: -1,
		Elastic: xomp.ElasticConfig{
			Enabled:     true,
			TotalBudget: 2,
			Interval:    -1, // manual ticks only
		},
		Policy: xomp.ShardPolicy{Quota: veto},
	})
	defer pool.Close()
	for i := 0; i < 5; i++ {
		if pool.RebalanceQuota() {
			t.Fatal("quota moved against the policy's veto")
		}
	}
	if veto.calls.Load() != 5 {
		t.Fatalf("quota policy consulted %d times, want 5", veto.calls.Load())
	}
	if moves := pool.QuotaMoves(); moves != 0 {
		t.Fatalf("%d quota moves despite veto", moves)
	}
}

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
	if got := pool.Signals().Capacity; got != 2 {
		t.Fatalf("Capacity = %v, want 2", got)
	}
	if trace := pool.PolicyTrace(); len(trace) != 0 {
		t.Fatalf("fresh pool has policy trace %+v", trace)
	}
}
