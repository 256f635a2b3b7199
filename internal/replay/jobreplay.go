package replay

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bots"
	"repro/internal/load"
	"repro/internal/simnuma"
	"repro/internal/stats"
	"repro/xomp"
)

// Options configures one job-trace replay: the pool shape the trace is
// driven through and how recorded time maps onto replay time. The zero
// value replays at recorded pace through a single default-config pool.
type Options struct {
	// Shards is the xomp.ShardedPool's shard count (<= 1 means one), each
	// shard a Team.Workers team as with explicit ShardConfig.Shards. One
	// shard is a single serving team on Team.Topology (detected when
	// unset); two or more run on a single zone each unless Team.Topology
	// is set.
	Shards int
	// Team is the serving-team configuration under test: preset,
	// workers, backlog, admission policy, balancing policy — the
	// "candidate" of a what-if comparison.
	Team xomp.Config
	// Elastic configures the elastic quota controller.
	Elastic xomp.ElasticConfig
	// BalanceInterval and MigrateThreshold configure the second-level
	// job-migration balancer: 0 keeps the ShardConfig defaults, a
	// negative BalanceInterval disables the background balancer — how a
	// quota-level test isolates the elastic controller from job
	// migration.
	BalanceInterval  time.Duration
	MigrateThreshold int
	// Policy overrides the pool's dispatch/migrate/quota policies.
	Policy xomp.ShardPolicy
	// Speed compresses recorded time: arrivals (and deadlines) happen
	// Speed times faster than recorded. 1 (or 0) replays at recorded
	// pace. Job sizes are not scaled, so Speed > 1 also raises the
	// offered load.
	Speed float64
	// PinTenants pins each event's tenant to shard Tenant mod Shards via
	// SubmitToCtx instead of letting the dispatch policy place it —
	// how a zipf-skewed tenant trace becomes a deterministically hot
	// shard.
	PinTenants bool
	// TenantWeights assigns fair-share weights by tenant id, overriding
	// any weights recorded in the trace header. Tenants absent from both
	// maps replay at the default weight 1.
	TenantWeights map[int]float64
	// Scale is the BOTS input scale for events whose App names a BOTS
	// application (default ScaleTest).
	Scale bots.Scale
	// Batch coalesces replay arrivals into SubmitBatchCtx calls of up to
	// this many jobs: events are batched while they are already due and
	// flushed whenever the batch fills or the arrival clock would sleep,
	// so batching never delays an arrival past its recorded offset. <= 1
	// submits every event individually (the default). Incompatible with
	// PinTenants, whose per-event shard pinning has no batch equivalent.
	Batch int
}

// ClassOutcome is one priority class's replay outcome: how its
// submissions left the admission edge, and the completion-latency
// distribution (submit to quiescence, the submitter-visible latency) of
// the jobs that ran.
type ClassOutcome struct {
	Submitted uint64
	Admitted  uint64
	Rejected  uint64
	Shed      uint64
	Expired   uint64
	Completed uint64
	// P50 and P99 are completion-latency percentiles over completed
	// jobs (0 when none completed).
	P50, P99 time.Duration
}

// TenantOutcome is one tenant's replay outcome: the same admission-edge
// and completion accounting as ClassOutcome, plus admission-latency
// percentiles — the time each of the tenant's submitters spent inside
// the submit call itself (queue-full blocking, admission policy delay),
// recorded for every attempt whether or not it was admitted. Admission
// latency is the noisy-neighbor signal: a victim tenant stuck behind
// another tenant's backlog shows it here before anywhere else.
type TenantOutcome struct {
	ClassOutcome
	// AdmitP50 and AdmitP99 are admission-latency percentiles over all
	// of the tenant's submission attempts.
	AdmitP50, AdmitP99 time.Duration
}

// JobReplayResult is one trace × configuration measurement.
type JobReplayResult struct {
	// Trace and Jobs identify the workload.
	Trace string
	Jobs  int
	// Wall is the replay's wall time (first arrival to last completion);
	// JobsPerSec is completed jobs per wall second.
	Wall       time.Duration
	JobsPerSec float64
	Completed  uint64
	// PerClass indexes outcomes by load.Class value.
	PerClass [load.NumClasses]ClassOutcome
	// PerTenant indexes outcomes by tenant id (only tenants that
	// submitted at least once appear).
	PerTenant map[int]TenantOutcome
	// QuotaMoves and MigratedIn are the pool's third- and second-level
	// balancing activity during the replay (0 with one shard).
	QuotaMoves uint64
	MigratedIn uint64
}

// classAccum accumulates one class's outcome counters during a replay.
type classAccum struct {
	mu sync.Mutex
	ClassOutcome
	lat stats.Sample
}

// tenantAccum accumulates one tenant's outcome counters during a replay.
// Instances live in a map guarded by one shared mutex (tenant ids are
// sparse and unbounded, unlike the fixed class array).
type tenantAccum struct {
	ClassOutcome
	lat      stats.Sample
	admitLat stats.Sample
}

// admitOutcome classifies one submission attempt's admission-edge result
// into o's counters. It reports whether err was recognized (nil or a
// known admission refusal); an unrecognized error is the caller's to
// surface.
func admitOutcome(o *ClassOutcome, err error) bool {
	o.Submitted++
	switch {
	case err == nil:
		o.Admitted++
	case errors.Is(err, xomp.ErrBacklogFull):
		o.Rejected++
	case errors.Is(err, xomp.ErrShed):
		o.Shed++
	case errors.Is(err, xomp.ErrDeadlineExceeded):
		o.Expired++
	default:
		return false
	}
	return true
}

// ReplayJobs replays tr through the pool Options describes with
// open-loop timed arrivals: every job is submitted at its recorded
// offset (scaled by Speed) from its own goroutine, so a saturated
// admission queue delays that job's submitter, never the arrival clock —
// the load the pool sees is the trace's, not the pool's own drain rate.
// Admission rejections, sheds, and expiries are outcomes, not errors.
// With Options.Batch > 1, due arrivals are coalesced into SubmitBatchCtx
// calls of up to Batch jobs instead — the amortized-admission variant of
// the same open-loop contract, with identical per-item accounting.
// The same trace replayed twice through the same blocking configuration
// yields identical per-class admission counts — the determinism contract
// the scenario regression tests pin.
func ReplayJobs(tr *JobTrace, opts Options) (JobReplayResult, error) {
	res := JobReplayResult{Trace: tr.Name, Jobs: len(tr.Jobs)}
	if len(tr.Jobs) == 0 {
		return res, fmt.Errorf("replay: empty job trace")
	}
	if opts.Batch > 1 && opts.PinTenants {
		return res, fmt.Errorf("replay: Batch and PinTenants are incompatible (pinning is per event)")
	}
	speed := opts.Speed
	if speed <= 0 {
		speed = 1
	}
	scale := opts.Scale
	bodies, err := buildBodies(tr, scale)
	if err != nil {
		return res, err
	}

	// Assemble the pool under test.
	pool, err := xomp.NewShardedPool(xomp.ShardConfig{
		Shards:           max(opts.Shards, 1),
		Team:             opts.Team,
		Elastic:          opts.Elastic,
		BalanceInterval:  opts.BalanceInterval,
		MigrateThreshold: opts.MigrateThreshold,
		Policy:           opts.Policy,
	})
	if err != nil {
		return res, fmt.Errorf("replay: build pool: %w", err)
	}
	ctx := context.Background()
	submit := func(ev JobEvent, fn xomp.TaskFunc, so xomp.SubmitOpts) (*xomp.Job, error) {
		if opts.PinTenants {
			n := pool.Shards()
			return pool.SubmitToCtx(ctx, (ev.Tenant%n+n)%n, fn, so)
		}
		return pool.SubmitCtx(ctx, fn, so)
	}

	// Weight lookup: Options override, then the trace header, then the
	// default weight 1 (a zero Weight means "unspecified" to the policy
	// layer, which treats it as 1).
	weightFor := func(id int) float64 {
		if w, ok := opts.TenantWeights[id]; ok {
			return w
		}
		return tr.Weights[id]
	}

	var (
		classes  [load.NumClasses]classAccum
		tenantMu sync.Mutex
		tenants  = make(map[int]*tenantAccum)
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	// buildOpts stamps one event's admission contract at submit time (the
	// deadline is relative to "now", so it must not be precomputed).
	buildOpts := func(ev JobEvent) xomp.SubmitOpts {
		so := xomp.SubmitOpts{
			Priority: xomp.Class(ev.Class),
			Tenant:   xomp.Tenant{ID: ev.Tenant, Weight: weightFor(ev.Tenant)},
		}
		if ev.Deadline > 0 {
			so.Deadline = time.Now().Add(time.Duration(float64(ev.Deadline) / speed))
		}
		return so
	}
	// recordAdmit books one submission attempt's admission-edge outcome
	// into the class and tenant accumulators; batched submissions go
	// through it once per item, so per-class admission counts stay
	// identical to an unbatched replay of the same trace.
	recordAdmit := func(ev JobEvent, err error, admitLat time.Duration) (*classAccum, *tenantAccum) {
		ca := &classes[ev.Class]
		ca.mu.Lock()
		if !admitOutcome(&ca.ClassOutcome, err) {
			errOnce.Do(func() { firstErr = err })
		}
		ca.mu.Unlock()
		tenantMu.Lock()
		ta := tenants[ev.Tenant]
		if ta == nil {
			ta = &tenantAccum{}
			tenants[ev.Tenant] = ta
		}
		admitOutcome(&ta.ClassOutcome, err)
		ta.admitLat.AddDuration(admitLat)
		tenantMu.Unlock()
		return ca, ta
	}
	// awaitJob waits out one admitted job and books its completion
	// latency (measured from the submit call's start, the
	// submitter-visible latency).
	awaitJob := func(t0 time.Time, j *xomp.Job, ca *classAccum, ta *tenantAccum) {
		werr := j.Wait()
		lat := time.Since(t0)
		ca.mu.Lock()
		if werr == nil {
			ca.Completed++
			ca.lat.AddDuration(lat)
		}
		ca.mu.Unlock()
		if werr == nil {
			tenantMu.Lock()
			ta.Completed++
			ta.lat.AddDuration(lat)
			tenantMu.Unlock()
		} else {
			errOnce.Do(func() { firstErr = werr })
		}
	}

	batch := opts.Batch
	if batch < 1 {
		batch = 1
	}
	var pending []int
	// flush submits every accumulated due event as one SubmitBatchCtx
	// call from its own goroutine (so a saturated admission queue delays
	// the batch's submitter, never the arrival clock), then fans out one
	// waiter per admitted job.
	flush := func() {
		if len(pending) == 0 {
			return
		}
		idx := append([]int(nil), pending...)
		pending = pending[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			items := make([]xomp.BatchItem, len(idx))
			for b, i := range idx {
				items[b] = xomp.BatchItem{Fn: bodies[i], Opts: buildOpts(tr.Jobs[i])}
			}
			t0 := time.Now()
			res, err := pool.SubmitBatchCtx(ctx, items)
			admitLat := time.Since(t0)
			if err != nil {
				for _, i := range idx {
					recordAdmit(tr.Jobs[i], err, admitLat)
				}
				return
			}
			for b, i := range idx {
				ca, ta := recordAdmit(tr.Jobs[i], res[b].Err, admitLat)
				if res[b].Err != nil {
					continue
				}
				wg.Add(1)
				go func(j *xomp.Job, ca *classAccum, ta *tenantAccum) {
					defer wg.Done()
					awaitJob(t0, j, ca, ta)
				}(res[b].Job, ca, ta)
			}
		}()
	}
	start := time.Now()
	for i := range tr.Jobs {
		ev := tr.Jobs[i]
		if d := time.Duration(float64(ev.At)/speed) - time.Since(start); d > 0 {
			// The arrival clock is about to sleep: everything due so far
			// must leave before the gap, or batching would delay arrivals.
			flush()
			time.Sleep(d)
		}
		if batch > 1 {
			pending = append(pending, i)
			if len(pending) >= batch {
				flush()
			}
			continue
		}
		wg.Add(1)
		go func(ev JobEvent, body xomp.TaskFunc) {
			defer wg.Done()
			so := buildOpts(ev)
			t0 := time.Now()
			j, err := submit(ev, body, so)
			ca, ta := recordAdmit(ev, err, time.Since(t0))
			if err != nil {
				return
			}
			awaitJob(t0, j, ca, ta)
		}(ev, bodies[i])
	}
	flush()
	wg.Wait()
	res.Wall = time.Since(start)
	res.QuotaMoves = pool.QuotaMoves()
	for _, st := range pool.Stats() {
		res.MigratedIn += st.MigratedIn
	}
	if err := pool.Close(); err != nil {
		return res, fmt.Errorf("replay: close pool: %w", err)
	}
	if firstErr != nil {
		return res, fmt.Errorf("replay: job failed: %w", firstErr)
	}
	for c := range classes {
		ca := &classes[c]
		res.PerClass[c] = ca.ClassOutcome
		if ca.lat.N() > 0 {
			res.PerClass[c].P50 = time.Duration(ca.lat.Percentile(50) * float64(time.Second))
			res.PerClass[c].P99 = time.Duration(ca.lat.Percentile(99) * float64(time.Second))
		}
		res.Completed += ca.Completed
	}
	res.PerTenant = make(map[int]TenantOutcome, len(tenants))
	for id, ta := range tenants {
		to := TenantOutcome{ClassOutcome: ta.ClassOutcome}
		if ta.lat.N() > 0 {
			to.P50 = time.Duration(ta.lat.Percentile(50) * float64(time.Second))
			to.P99 = time.Duration(ta.lat.Percentile(99) * float64(time.Second))
		}
		if ta.admitLat.N() > 0 {
			to.AdmitP50 = time.Duration(ta.admitLat.Percentile(50) * float64(time.Second))
			to.AdmitP99 = time.Duration(ta.admitLat.Percentile(99) * float64(time.Second))
		}
		res.PerTenant[id] = to
	}
	if res.Wall > 0 {
		res.JobsPerSec = float64(res.Completed) / res.Wall.Seconds()
	}
	return res, nil
}

// buildBodies precomputes one task body per trace event, before the
// arrival clock starts: BOTS app events get a fresh benchmark instance
// each (instances are not safe for concurrent jobs), synthetic events a
// spin tree of Size units fanned out over a handful of subtasks so the
// in-team balancer has something to move.
func buildBodies(tr *JobTrace, scale bots.Scale) ([]xomp.TaskFunc, error) {
	bodies := make([]xomp.TaskFunc, len(tr.Jobs))
	for i := range tr.Jobs {
		ev := tr.Jobs[i]
		if ev.Class < 0 || ev.Class >= int(load.NumClasses) {
			return nil, fmt.Errorf("replay: job %d: class %d outside [0, %d)", i, ev.Class, load.NumClasses)
		}
		if ev.App != "" {
			b, err := bots.New(ev.App, scale)
			if err != nil {
				return nil, fmt.Errorf("replay: job %d: %w", i, err)
			}
			bodies[i] = b.RunTask
			continue
		}
		size := ev.Size
		if size < 1 {
			size = 1
		}
		fan := 1 + size/8192
		if fan > 8 {
			fan = 8
		}
		chunk := size / fan
		bodies[i] = func(w *xomp.Worker) {
			for t := 0; t < fan; t++ {
				w.Spawn(func(*xomp.Worker) { simnuma.Spin(chunk) })
			}
			w.TaskWait()
		}
	}
	return bodies, nil
}
