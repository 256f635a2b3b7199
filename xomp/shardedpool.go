// ShardedPool: the two-level load-balancing layer. The DLB strategies of
// the paper balance tasks *within* one team; on a multi-socket machine a
// single team stretched across sockets pays cross-socket traffic on every
// queue operation. A ShardedPool instead runs one serving Team per NUMA
// domain and adds a second, coarser balancing level above the thread
// scheduler: a dispatcher that places incoming jobs on the least-loaded
// shard (power-of-two-choices over per-shard queue depth), and a balancer
// that migrates whole queued jobs from overloaded shards to idle ones —
// the paper's NA-WS semantics one layer up, with shards in place of
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
	"repro/internal/prof"
)

// ElasticConfig configures the third balancing level: an elastic capacity
// controller that moves *worker quota* between shards, where the first
// level places jobs and the second migrates queued jobs. Every Interval
// the controller compares per-shard load (admission queue depth + jobs in
// flight) against the shard's active worker count and, when one shard has
// been oversubscribed while another has idle active workers for
// Hysteresis consecutive ticks, parks one worker on the cold donor
// (Team.SetActive down) and unparks one on the hot shard (SetActive up).
// The sum of active workers never exceeds TotalBudget, so the pool can be
// provisioned with per-shard capacity headroom (Team.Workers above the
// per-shard share of the budget) that quota moves into whichever domain
// the traffic actually hits.
type ElasticConfig struct {
	// Enabled turns the controller on. When false the other fields are
	// ignored and every shard keeps all its workers active.
	Enabled bool
	// MinPerShard is the floor of active workers per shard (a shard must
	// always be able to drain its own admission queue). 0 means 1.
	MinPerShard int
	// MaxPerShard caps active workers per shard. 0 means the shard's
	// capacity (its team's Workers); values above capacity are clamped.
	MaxPerShard int
	// TotalBudget is the total number of active workers across all
	// shards. 0 means the sum of the per-shard caps (shard capacities,
	// or MaxPerShard where that is lower) — no headroom, so the
	// controller then has nothing to move. It must admit a distribution
	// within the per-shard min/max bounds.
	TotalBudget int
	// Interval is the controller's tick period. 0 means 1ms; negative
	// disables the background loop (RebalanceQuota can still be called
	// manually).
	Interval time.Duration
	// Hysteresis is how many consecutive ticks the same shard must stay
	// the oversubscribed candidate before quota moves — the damping that
	// keeps a transient burst from stealing a worker the donor is about
	// to need back. 0 means 2.
	Hysteresis int
}

// QuotaMove records one elastic quota reassignment: at time At (since
// pool construction) one worker of quota moved from shard From to shard
// To, leaving them with FromActive and ToActive active workers.
type QuotaMove struct {
	At         time.Duration
	From, To   int
	FromActive int
	ToActive   int
}

// maxQuotaTrace bounds the retained quota-move trace; a long-lived pool
// keeps the most recent moves (the lifetime count is in Stats).
const maxQuotaTrace = 4096

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

	// BalanceInterval is the period of the second-level balancer that
	// migrates queued jobs from the hottest shard to the coldest. 0 means
	// 200µs; negative disables the background balancer (Rebalance can
	// still be called manually).
	BalanceInterval time.Duration

	// MigrateThreshold is the minimum queue-depth gap (hottest minus
	// coldest shard) that triggers migration. 0 means 2.
	MigrateThreshold int

	// Elastic configures the elastic capacity controller (the third
	// balancing level: worker-quota moves between shards).
	Elastic ElasticConfig

	// Policy overrides the pool's balancing policy implementations. Zero
	// fields keep the defaults; Team.Policy (inside the per-shard team
	// configuration above) separately selects each shard's task-level
	// policy, including the adaptive controller.
	Policy ShardPolicy
}

// ShardPolicy selects the pool-level balancing policies. All three
// consume the shards' load signals (Team.Signals → load.Signals) through
// the load package's policy interfaces — the pool never reaches into a
// team's internals to make a balancing decision, so alternative policies
// can be swapped in without touching the mechanisms (dispatch, job
// migration, quota moves).
type ShardPolicy struct {
	// Dispatch places each submitted job on a shard.
	// nil → load.PowerOfTwo (power-of-two-choices by queue depth).
	Dispatch load.DispatchPolicy
	// Migrate plans the second-level balancer's hot→cold queued-job
	// moves. nil → load.GapHalving{Threshold: MigrateThreshold}.
	Migrate load.MigratePolicy
	// Quota plans the elastic controller's worker-quota moves; only used
	// with Elastic.Enabled. Stateful implementations are called under the
	// controller's lock. nil → load.OversubscribedQuota with
	// Elastic.Hysteresis.
	Quota load.QuotaPolicy
}

// ShardStats is one shard's load and migration picture at a point in time.
type ShardStats struct {
	// Shard is the shard index, Workers its team's maximum capacity, and
	// ActiveWorkers how many of those are currently unparked (equal to
	// Workers unless the elastic controller moved quota away).
	Shard         int
	Workers       int
	ActiveWorkers int
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
// team's load signals, profile and active-worker lever through Team(0).
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
// point. Level two: a background balancer watches per-shard queue depths
// and migrates whole queued jobs off overloaded shards, so even adversarial
// placement (every client pinning the same shard via SubmitTo) drains at
// the speed of the whole machine. Jobs keep their handle, quiescence
// detection, and panic isolation across a migration; a job that has begun
// executing is never moved, so every task of one job always runs inside
// one team, preserving the intra-team locality the paper's DLB exploits.
// Level three (opt-in via ShardConfig.Elastic): an elastic capacity
// controller moves *worker quota* between shards — sustained
// oversubscription on one shard parks a worker on an idle shard
// (Team.SetActive) and unparks one on the hot shard, so the resource
// allocation itself follows the traffic instead of only the work
// placement. Tasks move inside a team, jobs move between teams, workers'
// quota moves between teams: three granularities of the same hot→cold
// feedback loop.
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
	start  time.Time

	// dispatch and migrate are the first- and second-level balancing
	// policies; both consume per-shard load.Signals only.
	dispatch load.DispatchPolicy
	migrate  load.MigratePolicy

	// seq and seed drive the dispatcher's placement randomness: a
	// SplitMix64 stream indexed by an atomic counter, so concurrent
	// submitters draw independent choices without a lock.
	seq  atomic.Uint64
	seed uint64

	closed  atomic.Bool
	stopBal chan struct{}
	balOnce sync.Once
	balWG   sync.WaitGroup

	// el is the elastic capacity controller's state (third balancing
	// level). mu serializes controller ticks (background loop and manual
	// RebalanceQuota calls) and guards the quota policy's hysteresis
	// state; trace is the bounded quota-move log and its lifetime count.
	el struct {
		enabled bool
		policy  load.QuotaPolicy
		minEff  []int // per-shard active floor
		maxEff  []int // per-shard active cap (≤ capacity)
		mu      sync.Mutex
		trace   prof.Ring[QuotaMove]
	}
}

// signals snapshots every shard's current load signals — the one view all
// three balancing policies decide from.
func (p *ShardedPool) signals() []load.Signals {
	out := make([]load.Signals, len(p.shards))
	for i, tm := range p.shards {
		out[i] = tm.Signals()
	}
	return out
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

	threshold := cfg.MigrateThreshold
	if threshold == 0 {
		threshold = 2
	}
	if threshold < 1 {
		return nil, fmt.Errorf("xomp: MigrateThreshold must be >= 1, got %d", cfg.MigrateThreshold)
	}
	interval := cfg.BalanceInterval
	if interval == 0 {
		interval = 200 * time.Microsecond
	}

	baseSeed := base.Seed
	if baseSeed == 0 {
		baseSeed = 1
	}
	p := &ShardedPool{
		shards:   make([]*core.Team, len(shardTops)),
		dispatch: cfg.Policy.Dispatch,
		migrate:  cfg.Policy.Migrate,
		start:    time.Now(),
		seed:     uint64(baseSeed) * 0x9e3779b97f4a7c15,
		stopBal:  make(chan struct{}),
	}
	if p.dispatch == nil {
		p.dispatch = load.PowerOfTwo{}
	}
	if p.migrate == nil {
		p.migrate = load.GapHalving{Threshold: threshold}
	}
	quota, err := p.initElastic(cfg.Elastic, cfg.Policy.Quota, shardTops)
	if err != nil {
		return nil, err
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
		if err == nil && quota != nil && quota[s] < tm.Workers() {
			err = tm.SetActive(quota[s])
		}
		if err != nil {
			for _, started := range p.shards[:s] {
				started.Close()
			}
			return nil, fmt.Errorf("xomp: shard %d: %w", s, err)
		}
		p.shards[s] = tm
	}
	if len(p.shards) > 1 && interval > 0 {
		p.balWG.Add(1)
		go p.balance(interval)
	}
	if p.el.enabled && len(p.shards) > 1 && cfg.Elastic.Interval >= 0 {
		tick := cfg.Elastic.Interval
		if tick == 0 {
			tick = time.Millisecond
		}
		p.balWG.Add(1)
		go p.elasticLoop(tick)
	}
	return p, nil
}

// initElastic validates the elastic configuration against the shard
// layout, fills the controller's per-shard bounds, and returns the
// initial active-quota split (nil when elasticity is off). The budget is
// spread evenly and then clamped into the per-shard [min, max] bounds,
// pushing any remainder to shards that still have headroom.
func (p *ShardedPool) initElastic(e ElasticConfig, quota load.QuotaPolicy, shardTops []Topology) ([]int, error) {
	if !e.Enabled {
		return nil, nil
	}
	n := len(shardTops)
	floor := e.MinPerShard
	if floor == 0 {
		floor = 1
	}
	if floor < 1 {
		return nil, fmt.Errorf("xomp: Elastic.MinPerShard must be >= 1, got %d", e.MinPerShard)
	}
	if e.Hysteresis < 0 {
		return nil, fmt.Errorf("xomp: Elastic.Hysteresis must be >= 0, got %d", e.Hysteresis)
	}
	p.el.enabled = true
	p.el.trace = prof.NewRing[QuotaMove](maxQuotaTrace)
	p.el.policy = quota
	hysteresis := e.Hysteresis
	if hysteresis == 0 {
		hysteresis = 2
	}
	if p.el.policy == nil {
		p.el.policy = &load.OversubscribedQuota{Hysteresis: hysteresis}
	}
	p.el.minEff = make([]int, n)
	p.el.maxEff = make([]int, n)
	sumMin, sumMax := 0, 0
	for s, st := range shardTops {
		capacity := st.Workers
		if floor > capacity {
			return nil, fmt.Errorf("xomp: Elastic.MinPerShard %d exceeds shard %d capacity %d", floor, s, capacity)
		}
		ceil := e.MaxPerShard
		if ceil == 0 || ceil > capacity {
			ceil = capacity
		}
		if ceil < floor {
			return nil, fmt.Errorf("xomp: Elastic.MaxPerShard %d below MinPerShard %d", e.MaxPerShard, floor)
		}
		p.el.minEff[s] = floor
		p.el.maxEff[s] = ceil
		sumMin += floor
		sumMax += ceil
	}
	budget := e.TotalBudget
	if budget == 0 {
		budget = sumMax
	}
	if budget < sumMin || budget > sumMax {
		return nil, fmt.Errorf("xomp: Elastic.TotalBudget %d outside [%d, %d] admitted by the per-shard bounds", budget, sumMin, sumMax)
	}
	split := make([]int, n)
	left := budget
	for s := range split {
		split[s] = floor
		left -= floor
	}
	for left > 0 {
		gave := false
		for s := range split {
			if left > 0 && split[s] < p.el.maxEff[s] {
				split[s]++
				left--
				gave = true
			}
		}
		if !gave {
			break
		}
	}
	return split, nil
}

// elasticLoop is the background capacity controller: one RebalanceQuota
// tick per interval until Close.
func (p *ShardedPool) elasticLoop(interval time.Duration) {
	defer p.balWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-p.stopBal:
			return
		case <-tick.C:
			p.RebalanceQuota()
		}
	}
}

// RebalanceQuota runs one elastic-controller tick synchronously: snapshot
// every shard's load signals, let the quota policy pick a donor and a
// receiver (the default, load.OversubscribedQuota, moves one worker of
// quota toward the shard whose live jobs most oversubscribe its active
// workers, with hysteresis), and apply the move — donor parks first, so
// the active total never exceeds the budget. It reports whether quota
// moved. The background loop calls this every Elastic.Interval; tests and
// latency-sensitive callers may invoke it directly.
func (p *ShardedPool) RebalanceQuota() bool {
	if !p.el.enabled || p.closed.Load() {
		return false
	}
	p.el.mu.Lock()
	defer p.el.mu.Unlock()
	sigs := p.signals()
	cold, hot, ok := p.el.policy.Plan(sigs, p.el.minEff, p.el.maxEff)
	if !ok || cold == hot || cold < 0 || hot < 0 ||
		cold >= len(p.shards) || hot >= len(p.shards) {
		// Also rejects out-of-range indices from a misbehaving custom
		// policy, like pick() and Rebalance() do for theirs.
		return false
	}
	coldAct := int(sigs[cold].Capacity)
	hotAct := int(sigs[hot].Capacity)
	// Donor parks before the receiver unparks, so the sum of active
	// workers never exceeds TotalBudget, not even transiently.
	if err := p.shards[cold].SetActive(coldAct - 1); err != nil {
		return false
	}
	if err := p.shards[hot].SetActive(hotAct + 1); err != nil {
		p.shards[cold].SetActive(coldAct) // return the donated quota
		return false
	}
	p.el.trace.Add(QuotaMove{
		At:         time.Since(p.start),
		From:       cold,
		To:         hot,
		FromActive: coldAct - 1,
		ToActive:   hotAct + 1,
	})
	return true
}

// QuotaMoves returns how many elastic quota reassignments the controller
// has made over the pool's lifetime.
func (p *ShardedPool) QuotaMoves() uint64 { return p.el.trace.Total() }

// QuotaTrace returns a copy of the retained quota-move history in move
// order (the most recent maxQuotaTrace moves; QuotaMoves counts all).
func (p *ShardedPool) QuotaTrace() []QuotaMove { return p.el.trace.Snapshot() }

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
	return p.shards[p.pick(load.ClassBatch, load.Tenant{})].Submit(fn)
}

// SubmitCtx places fn under an admission contract (priority class,
// optional deadline, cancellable wait — see Team.SubmitCtx) on a shard
// chosen by the dispatch policy for that class: power-of-two-choices
// compares the queue depth the job's class would actually experience
// (load.EffectiveDepth), so an interactive job lands where the least
// same-or-higher-priority work precedes it — which is also the shard
// where a deadline-carrying job is least likely to be shed. The chosen
// shard's admission policy then decides waiting, rejection, or shedding.
func (p *ShardedPool) SubmitCtx(ctx context.Context, fn TaskFunc, opts SubmitOpts) (*Job, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	return p.shards[p.pick(opts.Priority, opts.Tenant)].SubmitCtx(ctx, fn, opts)
}

// batchChunk is how many consecutive items of a batched submission share
// one dispatch decision: the dispatcher places whole chunks instead of
// single jobs, so a batch of N pays N/batchChunk placement draws (each a
// signal snapshot and an RNG step) and each chunk rides the target
// shard's amortized batch admission. Small enough that a batch still
// spreads across shards, large enough to amortize the dispatch cost.
const batchChunk = 8

// SubmitBatch admits every fn as a new job of the neutral batch class,
// dispatching chunks of batchChunk jobs to shards chosen by the dispatch
// policy and admitting each chunk through the shard's amortized batch
// path. Results are index-aligned with fns.
func (p *ShardedPool) SubmitBatch(fns []TaskFunc) ([]BatchResult, error) {
	items := make([]BatchItem, len(fns))
	for i, fn := range fns {
		items[i] = BatchItem{Fn: fn, Opts: SubmitOpts{Priority: load.ClassBatch}}
	}
	return p.SubmitBatchCtx(context.Background(), items)
}

// SubmitBatchCtx admits a batch of jobs across the pool: consecutive
// runs of batchChunk items share one dispatch decision (keyed by the
// run's first item, so callers submitting per-class or per-tenant
// batches get coherent placement) and enter the chosen shard through
// Team.SubmitBatchInto, each chunk filling its own stretch of the one
// result slice — per-shard admission accounting, gauges, and rollback
// all happen on the team that actually received each chunk. A one-shard
// pool has no placement to decide and passes the batch whole. Partial
// admission under backpressure is the normal outcome and surfaces per
// item: each BatchResult carries its Job or the typed error SubmitCtx
// would have returned for it.
func (p *ShardedPool) SubmitBatchCtx(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if len(items) == 0 {
		return nil, nil
	}
	res := make([]BatchResult, len(items))
	chunk := batchChunk
	if len(p.shards) == 1 {
		chunk = len(items) // pick has one answer: one admission section, not one per chunk
	}
	for off := 0; off < len(items); off += chunk {
		end := min(off+chunk, len(items))
		s := p.pick(items[off].Opts.Priority, items[off].Opts.Tenant)
		if err := p.shards[s].SubmitBatchInto(ctx, items[off:end], res[off:end]); err != nil {
			// A shard-level failure (not serving) fails its chunk's items,
			// not the whole batch — later chunks may land elsewhere.
			for i := off; i < end; i++ {
				res[i].Err = err
			}
		}
	}
	return res, nil
}

// SubmitTo pins fn to one specific shard, bypassing the dispatcher. It is
// the placement override for locality-affine clients (whose data is homed
// in that shard's domain) and for load generators and tests that need a
// deterministically hot shard; the second-level balancer will still move
// the job if the shard stays overloaded.
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

// pick delegates placement to the dispatch policy (power-of-two-choices
// over the class-effective shard queue depth by default), feeding it a
// fresh SplitMix64 draw, the submission's class, and per-shard signal
// access. A tenant-aware policy (load.TenantDispatchPolicy) additionally
// sees the submitting tenant and its per-shard queued footprint, so one
// tenant's flood spreads across shards instead of following pure queue
// depth.
func (p *ShardedPool) pick(c load.Class, t load.Tenant) int {
	n := len(p.shards)
	if n == 1 {
		return 0
	}
	r := splitmix64(p.seed + p.seq.Add(1))
	sig := func(i int) load.Signals { return p.shards[i].Signals() }
	var s int
	if tp, ok := p.dispatch.(load.TenantDispatchPolicy); ok {
		tq := func(i int) float64 { return float64(p.shards[i].Profile().TenantQueued(t.ID)) }
		s = tp.PickTenant(r, n, c, t, sig, tq)
	} else {
		s = p.dispatch.Pick(r, n, c, sig)
	}
	if s < 0 || s >= n {
		s = int(r % uint64(n)) // a misbehaving policy cannot crash Submit
	}
	return s
}

// splitmix64 is the SplitMix64 output function: a bijective mixer turning
// the dispatcher's counter into uncorrelated placement draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// balance is the second-level balancer loop: periodically migrate queued
// jobs from the hottest shard to the coldest until Close.
func (p *ShardedPool) balance(interval time.Duration) {
	defer p.balWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-p.stopBal:
			return
		case <-tick.C:
			p.Rebalance()
		}
	}
}

// Rebalance runs one second-level balancing scan synchronously: snapshot
// every shard's load signals, let the migrate policy plan a hot→cold move
// (the default, load.GapHalving, halves the deepest-shallowest queue gap
// once it reaches the migration threshold, plus a rescue rule for a job
// stuck behind a saturated shard), and migrate that many queued jobs. It
// returns the number of jobs moved. The background balancer calls this on
// every tick; tests and latency-sensitive callers may invoke it directly.
func (p *ShardedPool) Rebalance() int {
	hot, cold, n := p.migrate.Plan(p.signals())
	if n <= 0 || hot == cold || hot < 0 || cold < 0 ||
		hot >= len(p.shards) || cold >= len(p.shards) {
		return 0
	}
	moved := 0
	for moved < n {
		if !core.MigrateQueuedJob(p.shards[hot], p.shards[cold]) {
			break
		}
		moved++
	}
	return moved
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

// ActiveWorkers returns the total number of currently active (unparked)
// workers across all shards — at most Elastic.TotalBudget when the
// elastic controller is on, and equal to Workers otherwise.
func (p *ShardedPool) ActiveWorkers() int {
	n := 0
	for _, tm := range p.shards {
		n += tm.ActiveWorkers()
	}
	return n
}

// Team returns shard s's serving team, e.g. for Profile() access. Do not
// call Run/Parallel/Close on it while the pool is open.
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
			ActiveWorkers: tm.ActiveWorkers(),
			QueueDepth:    tm.QueueDepth(),
			ActiveJobs:    tm.ActiveJobs(),
			JobsCompleted: tm.Profile().JobsTotal(),
			MigratedIn:    in,
			MigratedOut:   outN,
		}
	}
	return out
}
