package xomp_test

import (
	"strings"
	"testing"
	"time"

	"repro/xomp"
)

// elasticPool builds a 2-shard pool with per-shard capacity headroom and
// a manually stepped controller (no background loops), the deterministic
// harness the quota tests drive by hand.
func elasticPool(t *testing.T, hysteresis int) *xomp.ShardedPool {
	t.Helper()
	pool, err := xomp.NewShardedPool(xomp.ShardConfig{
		Shards:          2,
		Team:            xomp.Preset("xgomptb", 4), // capacity 4 per shard
		BalanceInterval: -1,                        // no job migration: isolate the quota level
		Elastic: xomp.ElasticConfig{
			Enabled:     true,
			TotalBudget: 4, // 2 active per shard initially, 2x headroom
			Interval:    -1,
			Hysteresis:  hysteresis,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestElasticConfigValidation(t *testing.T) {
	base := func() xomp.ShardConfig {
		return xomp.ShardConfig{Shards: 2, Team: xomp.Preset("xgomptb", 4)}
	}
	cases := []struct {
		name string
		mut  func(*xomp.ShardConfig)
		want string
	}{
		{"min-above-capacity", func(c *xomp.ShardConfig) {
			c.Elastic = xomp.ElasticConfig{Enabled: true, MinPerShard: 5}
		}, "MinPerShard"},
		{"max-below-min", func(c *xomp.ShardConfig) {
			c.Elastic = xomp.ElasticConfig{Enabled: true, MinPerShard: 3, MaxPerShard: 2}
		}, "MaxPerShard"},
		{"budget-below-floors", func(c *xomp.ShardConfig) {
			c.Elastic = xomp.ElasticConfig{Enabled: true, MinPerShard: 2, TotalBudget: 3}
		}, "TotalBudget"},
		{"budget-above-caps", func(c *xomp.ShardConfig) {
			c.Elastic = xomp.ElasticConfig{Enabled: true, TotalBudget: 9}
		}, "TotalBudget"},
		{"negative-hysteresis", func(c *xomp.ShardConfig) {
			c.Elastic = xomp.ElasticConfig{Enabled: true, Hysteresis: -1}
		}, "Hysteresis"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base()
			c.mut(&cfg)
			_, err := xomp.NewShardedPool(cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("NewShardedPool = %v, want error naming %s", err, c.want)
			}
		})
	}
	// Elastic off leaves every worker active regardless of the fields.
	pool := xomp.MustShardedPool(base())
	defer pool.Close()
	if pool.ActiveWorkers() != pool.Workers() {
		t.Fatalf("non-elastic pool parked workers: %d of %d active", pool.ActiveWorkers(), pool.Workers())
	}
	if pool.RebalanceQuota() {
		t.Fatal("RebalanceQuota moved quota on a non-elastic pool")
	}
}

// A sustained hot shard must pull quota from a cold donor until the donor
// hits its floor, the total never exceeding the budget; the moves must be
// visible in Stats, the quota trace, and the shards' NWORKERS_ACTIVE
// gauges.
func TestElasticQuotaShiftsToHotShard(t *testing.T) {
	pool := elasticPool(t, 1)
	defer pool.Close()

	gate := make(chan struct{})
	var jobs []*xomp.Job
	for i := 0; i < 6; i++ {
		j, err := pool.SubmitTo(0, func(*xomp.Worker) { <-gate })
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if !pool.RebalanceQuota() {
		t.Fatal("controller did not move quota toward the oversubscribed shard")
	}
	st := pool.Stats()
	if st[0].ActiveWorkers != 3 || st[1].ActiveWorkers != 1 {
		t.Fatalf("active workers = %d/%d after one move, want 3/1", st[0].ActiveWorkers, st[1].ActiveWorkers)
	}
	// The donor is at its floor now: no further move is legal.
	if pool.RebalanceQuota() {
		t.Fatal("controller moved quota past the donor's floor")
	}
	if got := pool.ActiveWorkers(); got != 4 {
		t.Fatalf("total active = %d, want the budget 4", got)
	}
	if got := pool.QuotaMoves(); got != 1 {
		t.Fatalf("QuotaMoves = %d, want 1", got)
	}
	trace := pool.QuotaTrace()
	if len(trace) != 1 || trace[0].From != 1 || trace[0].To != 0 || trace[0].ToActive != 3 {
		t.Fatalf("quota trace = %+v, want one move 1→0 leaving 3 active", trace)
	}
	if gauge := pool.Team(0).Profile().WorkersActive(); gauge != 3 {
		t.Fatalf("shard 0 NWORKERS_ACTIVE gauge = %d, want 3", gauge)
	}

	close(gate)
	for _, j := range jobs {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// Hysteresis must damp the controller: a single observation of imbalance
// is not enough, the same hot shard has to persist across ticks.
func TestElasticHysteresisDampsMoves(t *testing.T) {
	pool := elasticPool(t, 3)
	defer pool.Close()

	gate := make(chan struct{})
	var jobs []*xomp.Job
	for i := 0; i < 6; i++ {
		j, err := pool.SubmitTo(0, func(*xomp.Worker) { <-gate })
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for tick := 1; tick <= 2; tick++ {
		if pool.RebalanceQuota() {
			t.Fatalf("quota moved on tick %d, before the hysteresis of 3", tick)
		}
	}
	if !pool.RebalanceQuota() {
		t.Fatal("quota did not move once the imbalance persisted")
	}
	close(gate)
	for _, j := range jobs {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// Uniform (or absent) load must not trigger quota churn.
func TestElasticUniformLoadStable(t *testing.T) {
	pool := elasticPool(t, 1)
	defer pool.Close()
	for shard := 0; shard < 2; shard++ {
		for i := 0; i < 4; i++ {
			j, err := pool.SubmitTo(shard, func(w *xomp.Worker) {
				w.For(8, 1, func(*xomp.Worker, int) {})
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for tick := 0; tick < 10; tick++ {
		if pool.RebalanceQuota() {
			t.Fatal("controller moved quota under uniform load")
		}
	}
	if got := pool.QuotaMoves(); got != 0 {
		t.Fatalf("QuotaMoves = %d under uniform load, want 0", got)
	}
}

// The background controller must discover a hot shard on its own and the
// pool must stay within budget the whole time.
func TestElasticBackgroundController(t *testing.T) {
	pool, err := xomp.NewShardedPool(xomp.ShardConfig{
		Shards:          2,
		Team:            xomp.Preset("xgomptb", 4),
		BalanceInterval: -1,
		Elastic: xomp.ElasticConfig{
			Enabled:     true,
			TotalBudget: 4,
			Interval:    100 * time.Microsecond,
			Hysteresis:  1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	gate := make(chan struct{})
	var jobs []*xomp.Job
	for i := 0; i < 8; i++ {
		j, err := pool.SubmitTo(0, func(*xomp.Worker) { <-gate })
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if pool.ActiveWorkers() > 4 {
			t.Fatalf("active workers %d exceed the budget 4", pool.ActiveWorkers())
		}
		if pool.Stats()[0].ActiveWorkers == 3 {
			break // quota followed the traffic
		}
		if time.Now().After(deadline) {
			t.Fatalf("background controller never shifted quota: %+v", pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for _, j := range jobs {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// The one-shard pool's team exposes the same load signals the pool reads
// per shard, plus the SetActive capacity lever.
func TestPoolLoadSignalsAndSetActive(t *testing.T) {
	pool := xomp.MustPool(xomp.Preset("xgomptb", 4))
	defer pool.Close()
	team := pool.Team(0)
	if pool.Workers() != 4 || pool.ActiveWorkers() != 4 {
		t.Fatalf("fresh pool: %d/%d active/capacity, want 4/4", pool.ActiveWorkers(), pool.Workers())
	}
	if team.QueueDepth() != 0 || team.ActiveJobs() != 0 {
		t.Fatalf("idle pool reports depth %d, active %d", team.QueueDepth(), team.ActiveJobs())
	}
	gate := make(chan struct{})
	var jobs []*xomp.Job
	for i := 0; i < 6; i++ {
		j, err := pool.Submit(func(*xomp.Worker) { <-gate })
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if got := team.ActiveJobs(); got != 6 {
		t.Fatalf("ActiveJobs = %d, want 6", got)
	}
	if got := team.QueueDepth(); got < 1 || got > 6 {
		t.Fatalf("QueueDepth = %d with 6 gated jobs on 4 workers", got)
	}
	if err := team.SetActive(2); err != nil {
		t.Fatal(err)
	}
	if got := pool.ActiveWorkers(); got != 2 {
		t.Fatalf("ActiveWorkers = %d after SetActive(2)", got)
	}
	close(gate)
	for _, j := range jobs {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := team.ActiveJobs(); got != 0 {
		t.Fatalf("ActiveJobs = %d after drain, want 0", got)
	}
}
