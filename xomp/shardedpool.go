// ShardedPool: the two-level load-balancing layer. The DLB strategies of
// the paper balance tasks *within* one team; on a multi-socket machine a
// single team stretched across sockets pays cross-socket traffic on every
// queue operation. A ShardedPool instead runs one serving Team per NUMA
// domain and adds a second, coarser balancing level above the thread
// scheduler: a dispatcher that places incoming jobs on the least-loaded
// shard (power-of-two-choices over per-shard queue depth), and a balancer
// that migrates whole queued jobs only to shards with an idle worker —
// the paper's thief-first stealing one layer up, with shards in place of
// workers and jobs in place of tasks.
package xomp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/numa"
)

// ShardConfig assembles a ShardedPool.
type ShardConfig struct {
	// Shards is the number of per-domain teams. 0 derives it from the
	// topology: one shard per NUMA zone of Team.Topology (or of the
	// detected host topology when Team.Topology is unset), each shard
	// sized to its zone. When Shards is set explicitly, every shard runs
	// Team.Workers workers on Team.Topology when it is set; when it is
	// unset, a single shard detects its topology the way a Team does and
	// two or more shards each run on a single zone.
	Shards int

	// Team is the per-shard team configuration (substrate, barrier, DLB,
	// backlog, ...). Workers and Topology are interpreted per shard as
	// described under Shards; Seed is decorrelated per shard.
	Team Config
}

// ShardStats is one shard's load and migration picture at a point in time.
type ShardStats struct {
	// Shard is the shard index and Workers its team's size.
	Shard   int
	Workers int
	// QueueDepth is the shard's NJOBS_QUEUED gauge: jobs submitted but not
	// yet adopted. ActiveJobs additionally counts adopted jobs still
	// running.
	QueueDepth int64
	ActiveJobs int64
	// JobsCompleted is the lifetime completion count, including jobs the
	// balancer migrated in.
	JobsCompleted uint64
	// MigratedIn/MigratedOut are the shard's NJOBS_MIGRATED counters.
	MigratedIn  uint64
	MigratedOut uint64
}

// ShardedPool is the task service, and the only pool type: one persistent
// serving Team per NUMA domain behind a two-level dynamic load balancer. A
// single team serving concurrent jobs is its one-shard case (NewPool),
// where placement has one answer and the balancers do not run; reach that
// team's load signals and profile through Team(0).
//
//	pool := xomp.MustShardedPool(xomp.ShardConfig{
//		Shards: 4,
//		Team:   xomp.Preset("xgomptb+naws", 2), // 2 workers per shard
//	})
//	defer pool.Close()
//	job, err := pool.Submit(func(w *xomp.Worker) { ... })
//
// Level one: Submit places each job on the less loaded of two randomly
// chosen shards (power-of-two-choices over admission queue depth), so
// uncorrelated submitters spread load without any shared coordination
// point. Level two: a background balancer moves whole queued jobs that
// wait behind busy workers to a shard whose workers have nothing to do,
// so even adversarial placement (every client pinning the same shard via
// SubmitTo) drains at the speed of the whole machine, while two busy
// shards never trade jobs. Jobs keep their handle, quiescence
// detection, and panic isolation across a migration; a job that has begun
// executing is never moved, so every task of one job always runs inside
// one team, preserving the intra-team locality the paper's DLB exploits.
// Tasks move inside a team and jobs move between teams: two granularities
// of the same idle-pulls-work rule. Each level runs one fixed plan over
// the shards' load signals (power-of-two choices, fill the idle); the
// admission policy (Config.Admit) is the pool's one selectable balancer.
//
// Jobs are isolated from each other: each has its own quiescence detection
// and panic capture, so one panicking job neither poisons its team nor
// disturbs other jobs in flight. Per-job profiling records accumulate on
// each team's profile in a bounded ring (Team(s).Profile().Jobs()).
// ShardConfig.Team.Profile (the per-task event timeline) is meant for bounded
// experiments: it is not size-bounded, so leave it off for a long-lived
// pool under continuous traffic.
//
// Jobs/IDs are issued per shard, so two jobs of one pool may share an ID if
// they were submitted to (or migrated from) different shards.
type ShardedPool struct {
	shards []*core.Team

	// seq and seed drive the dispatcher's placement randomness: a
	// SplitMix64 stream indexed by an atomic counter, so concurrent
	// submitters draw independent choices without a lock.
	seq  atomic.Uint64
	seed uint64

	closed  atomic.Bool
	stopBal chan struct{}
	balOnce sync.Once
	balWG   sync.WaitGroup
}

// NewShardedPool validates cfg, builds and starts one serving team per
// shard, and starts the second-level balancer.
func NewShardedPool(cfg ShardConfig) (*ShardedPool, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("xomp: ShardConfig.Shards must be >= 0, got %d", cfg.Shards)
	}
	base := cfg.Team
	var shardTops []Topology
	if cfg.Shards == 0 {
		top := base.Topology
		if top.Workers == 0 {
			if base.Workers <= 0 {
				return nil, fmt.Errorf("xomp: ShardConfig needs Shards, Team.Topology, or Team.Workers to size the pool")
			}
			top = numa.Detect(base.Workers)
		}
		shardTops = top.SplitDomains()
	} else {
		if base.Workers <= 0 {
			return nil, fmt.Errorf("xomp: Team.Workers must be positive with explicit Shards, got %d", base.Workers)
		}
		top := base.Topology
		switch {
		case top.Workers == 0 && cfg.Shards == 1:
			top = numa.Detect(base.Workers)
		case top.Workers == 0:
			top = numa.Synthetic(base.Workers, 1)
		case top.Workers != base.Workers:
			return nil, fmt.Errorf("xomp: Team.Topology covers %d workers, Team.Workers is %d", top.Workers, base.Workers)
		}
		shardTops = make([]Topology, cfg.Shards)
		for i := range shardTops {
			shardTops[i] = top
		}
	}

	baseSeed := base.Seed
	if baseSeed == 0 {
		baseSeed = 1
	}
	p := &ShardedPool{
		shards:  make([]*core.Team, len(shardTops)),
		seed:    uint64(baseSeed) * 0x9e3779b97f4a7c15,
		stopBal: make(chan struct{}),
	}
	for s, st := range shardTops {
		c := base
		c.Workers = st.Workers
		c.Topology = st
		// Decorrelate the per-shard worker RNG streams (victim selection
		// would otherwise be in lockstep across shards).
		c.Seed = baseSeed + int64(s)*0x1000001
		if c.Seed == 0 {
			c.Seed = 1
		}
		tm, err := core.NewTeam(c)
		if err == nil {
			err = tm.Serve()
		}
		if err != nil {
			for _, started := range p.shards[:s] {
				started.Close()
			}
			return nil, fmt.Errorf("xomp: shard %d: %w", s, err)
		}
		p.shards[s] = tm
	}
	if len(p.shards) > 1 {
		p.balWG.Add(1)
		go p.balance()
	}
	return p, nil
}

// MustShardedPool is NewShardedPool, panicking on configuration errors.
func MustShardedPool(cfg ShardConfig) *ShardedPool {
	p, err := NewShardedPool(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Submit places fn as a new job on the less loaded of two randomly chosen
// shards and returns its handle. Under the default admission policy it
// blocks while that shard's admission queue is full (a non-blocking
// Team.Admit policy — RejectWhenFull, DeadlineShed — returns
// ErrBacklogFull instead) and returns ErrClosed after Close. Submit must
// be called from outside the pool's task bodies; inside a task, spawn
// children with Worker.Spawn instead.
func (p *ShardedPool) Submit(fn TaskFunc) (*Job, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	return p.shards[p.pick(load.ClassBatch)].Submit(fn)
}

// SubmitCtx places fn under an admission contract (priority class,
// optional deadline, cancellable wait — see Team.SubmitCtx) on a shard
// chosen by the dispatcher for that class: power-of-two-choices
// compares the queue depth the job's class would actually experience
// (load.EffectiveDepth), so an interactive job lands where the least
// same-or-higher-priority work precedes it — which is also the shard
// where a deadline-carrying job is least likely to be shed. The chosen
// shard's admission policy then decides waiting, rejection, or shedding.
func (p *ShardedPool) SubmitCtx(ctx context.Context, fn TaskFunc, opts SubmitOpts) (*Job, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	return p.shards[p.pick(opts.Priority)].SubmitCtx(ctx, fn, opts)
}

// batchChunk is how many consecutive items of a batched submission share
// one dispatch decision: the dispatcher places whole chunks instead of
// single jobs, so a batch of N pays N/batchChunk placement draws (each a
// signal snapshot and an RNG step) and each chunk rides the target
// shard's amortized batch admission. Small enough that a batch still
// spreads across shards, large enough to amortize the dispatch cost.
const batchChunk = 8

// SubmitBatch admits every fn as a new job of the neutral batch class,
// dispatching chunks of batchChunk jobs to shards chosen by the
// dispatcher and admitting each chunk through the shard's amortized batch
// path. Results are index-aligned with fns.
func (p *ShardedPool) SubmitBatch(fns []TaskFunc) ([]BatchResult, error) {
	items := make([]BatchItem, len(fns))
	for i, fn := range fns {
		items[i] = BatchItem{Fn: fn, Opts: SubmitOpts{Priority: load.ClassBatch}}
	}
	res := make([]BatchResult, len(items))
	if err := p.SubmitBatchCtx(context.Background(), items, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SubmitBatchCtx admits a batch of jobs across the pool and writes one
// BatchResult per item into res, index-aligned with items (len(res) >=
// len(items); previous contents are overwritten), so a caller that keeps
// its result slice admits without allocating. Consecutive runs of
// batchChunk items share one dispatch decision (keyed by the class of the
// run's first item, so callers submitting per-class batches get coherent
// placement) and enter the chosen shard through Team.SubmitBatchInto,
// each chunk filling its own stretch of res — per-shard admission
// accounting, gauges, and rollback all happen on the team that actually
// received each chunk. A one-shard pool has no placement to decide and
// passes the batch whole. Partial admission under backpressure is the
// normal outcome and surfaces per item: each BatchResult carries its Job
// or the typed error SubmitCtx would have returned for it. The error is
// ErrClosed once Close has begun, and then res is left untouched.
func (p *ShardedPool) SubmitBatchCtx(ctx context.Context, items []BatchItem, res []BatchResult) error {
	if p.closed.Load() {
		return ErrClosed
	}
	res = res[:len(items)]
	chunk := batchChunk
	if len(p.shards) == 1 {
		chunk = len(items) // pick has one answer: one admission section, not one per chunk
	}
	for off := 0; off < len(items); off += chunk {
		end := min(off+chunk, len(items))
		s := p.pick(items[off].Opts.Priority)
		if err := p.shards[s].SubmitBatchInto(ctx, items[off:end], res[off:end]); err != nil {
			// A shard-level failure (not serving) fails its chunk's items,
			// not the whole batch — later chunks may land elsewhere.
			for i := off; i < end; i++ {
				res[i].Err = err
			}
		}
	}
	return nil
}

// SubmitTo pins fn to one specific shard, bypassing the dispatcher. It is
// the placement override for locality-affine clients (whose data is homed
// in that shard's domain) and for load generators and tests that need a
// deterministically hot shard; the second-level balancer still moves the
// job while it waits behind busy workers and another shard has an idle one.
func (p *ShardedPool) SubmitTo(shard int, fn TaskFunc) (*Job, error) {
	if shard < 0 || shard >= len(p.shards) {
		return nil, fmt.Errorf("xomp: SubmitTo shard %d of %d", shard, len(p.shards))
	}
	if p.closed.Load() {
		return nil, ErrClosed
	}
	return p.shards[shard].Submit(fn)
}

// SubmitToCtx is SubmitTo under an admission contract: the job is pinned
// to one shard and that shard's admission layer applies the class queue,
// deadline, and policy semantics of SubmitCtx.
func (p *ShardedPool) SubmitToCtx(ctx context.Context, shard int, fn TaskFunc, opts SubmitOpts) (*Job, error) {
	if shard < 0 || shard >= len(p.shards) {
		return nil, fmt.Errorf("xomp: SubmitTo shard %d of %d", shard, len(p.shards))
	}
	if p.closed.Load() {
		return nil, ErrClosed
	}
	return p.shards[shard].SubmitCtx(ctx, fn, opts)
}

// pick places one submission of class c: power-of-two-choices over the
// class-effective shard queue depth (load.PowerOfTwo), fed a fresh
// SplitMix64 draw and per-shard signal access.
func (p *ShardedPool) pick(c load.Class) int {
	n := len(p.shards)
	if n == 1 {
		return 0
	}
	r := splitmix64(p.seed + p.seq.Add(1))
	return load.PowerOfTwo{}.Pick(r, n, c, func(i int) load.Signals { return p.shards[i].Signals() })
}

// splitmix64 is the SplitMix64 output function: a bijective mixer turning
// the dispatcher's counter into uncorrelated placement draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// balanceTick is the second-level balancer's period. Ablations on
// 2 vCPUs (alternated 24 s svcbench open-mix pairs) found that this wake,
// not the moves, carries open-mix's latency: with the tick running and no
// move made, p99 read 1.76–1.79 ms, as with gap-halving moves
// (1.74–1.77); with no tick it read 3.74–4.23 ms against 1.66–2.03.
const balanceTick = 200 * time.Microsecond

// balance is the second-level balancer loop: every balanceTick, move
// stuck jobs to idle shards, until Close. It owns the one signals slice
// every tick snapshots into.
func (p *ShardedPool) balance() {
	defer p.balWG.Done()
	sig := make([]load.Signals, len(p.shards))
	tick := time.NewTicker(balanceTick)
	defer tick.Stop()
	for {
		select {
		case <-p.stopBal:
			return
		case <-tick.C:
			p.rebalance(sig)
		}
	}
}

// rebalance runs one balancing scan: it snapshots every shard's load
// signals into sig (one per shard), lets load.FillIdle pick the shard
// with the most jobs stuck behind busy workers and the shard with the
// most idle workers, and migrates that many queued jobs between them. It
// returns the number of jobs moved.
func (p *ShardedPool) rebalance(sig []load.Signals) int {
	for i, tm := range p.shards {
		sig[i] = tm.Signals()
	}
	from, to, n := load.FillIdle(sig)
	for moved := 0; moved < n; moved++ {
		if !core.MigrateQueuedJob(p.shards[from], p.shards[to]) {
			return moved
		}
	}
	return n
}

// Close stops the balancer and closes every shard: admission ends, all
// submitted jobs run to completion, then the workers stop. Repeated and
// concurrent Close calls are safe, and a repeated Close returns nil. It
// must be called from outside the pool's task bodies: it waits for every
// job, including the caller's own, so a task calling Close deadlocks.
func (p *ShardedPool) Close() error {
	p.closed.Store(true)
	p.balOnce.Do(func() { close(p.stopBal) })
	p.balWG.Wait()
	var first error
	for _, tm := range p.shards {
		if err := tm.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shards returns the number of shards.
func (p *ShardedPool) Shards() int { return len(p.shards) }

// Workers returns the total worker capacity across all shards.
func (p *ShardedPool) Workers() int {
	n := 0
	for _, tm := range p.shards {
		n += tm.Workers()
	}
	return n
}

// Team returns shard s's serving team, e.g. for Profile() access. Do not
// call Run/Close on it while the pool is open.
func (p *ShardedPool) Team(s int) *Team { return p.shards[s] }

// Stats returns every shard's current load and migration counters. It may
// be called on a live pool.
func (p *ShardedPool) Stats() []ShardStats {
	out := make([]ShardStats, len(p.shards))
	for i, tm := range p.shards {
		in, outN := tm.Profile().JobsMigrated()
		out[i] = ShardStats{
			Shard:         i,
			Workers:       tm.Workers(),
			QueueDepth:    tm.QueueDepth(),
			ActiveJobs:    tm.ActiveJobs(),
			JobsCompleted: tm.Profile().JobsTotal(),
			MigratedIn:    in,
			MigratedOut:   outN,
		}
	}
	return out
}
