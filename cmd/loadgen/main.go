// Command loadgen drives a shared task service (xomp.ShardedPool) with
// concurrent submitters over a mix of BOTS workloads — the traffic shape a
// job-server runtime must sustain: many independent clients, heterogeneous
// task trees, persistent worker teams.
//
// Each submitter goroutine submits jobs back-to-back, cycling through the
// workload mix; every job is verified against its application's sequential
// reference. The report covers throughput (jobs/sec), per-application
// counts, and queue-delay/run-time statistics from the per-job profile.
//
// The pool flags are internal/poolflags', shared with cmd/jobserved. The
// default, -shards 1, is the one-shard pool: a single shared team over
// -zones synthetic NUMA zones. With -shards N > 1 the same total worker
// count is split into N single-zone shards: jobs are placed by the
// power-of-two-choices dispatcher and a second-level balancer moves jobs
// queued behind busy workers to a shard with an idle one. -skew pins a
// leading fraction of every submitter's jobs to shard 0 — the hot-shard
// scenario that only cross-shard migration can drain. The report lists
// every shard's completion and NJOBS_MIGRATED counts.
//
// The admission edge is exercised with three flags. -priority-mix
// "I:B:G" spreads each submitter's jobs over the interactive, batch, and
// background classes by integer weight (default 0:1:0, everything
// batch). -deadline d stamps every job with a completion deadline d from
// its submission. -admit selects the admission policy: "block" (wait for
// backlog space, the default), "reject" (ErrBacklogFull instead of
// blocking), "shed" (deadline-aware shedding under saturation), or
// "wfq" (weighted-fair multi-tenant admission: each tenant is capped at
// its weighted share of the queue, over-share submissions are shed).
// Rejected, shed, and expired submissions are not failures — they are
// the admission layer working — and the report counts them per class
// next to the p50/p99 admission latency (time a Submit call spent at the
// edge before its job entered a queue).
//
// -batch N drives the fast-path submission API: closed-loop submitters
// accumulate N jobs and admit them through one SubmitBatchCtx call
// (amortized admission with per-job typed-error results), and scenario
// or trace replays coalesce due arrivals into batches of up to N the
// same way. Incompatible with the per-job pinning flags (-skew,
// -pin-tenants).
//
// The tenant dimension: -tenants N spreads closed-loop submitters over N
// tenant ids (submitter s submits as tenant s mod N), and
// -tenant-weights "id=w,..." assigns fair-share weights — to closed-loop
// tenants, to replayed traces (overriding any weights in the trace
// header), and onto traces captured with -record. With more than one
// tenant the report adds a per-tenant admission table; replays add
// per-tenant completion and admission-latency percentiles.
//
// Beyond closed-loop traffic, loadgen is the corpus tool. -scenario
// replays a generated workload preset (steady, flash-crowd, zipf,
// diurnal, deadline-mix — see internal/scenario) with open-loop timed
// arrivals through the same pool flags, reporting jobs/sec and per-class
// admit/reject/shed/expire counts with p50/p99 completion latency;
// -trace replays a recorded .jsonl job trace the same way; -record
// captures a closed-loop run's submit edge as such a trace; and
// -scenario with -emit writes the generated trace to a file — how the
// golden corpus under testdata/scenarios/ is (re)generated.
//
// Beyond the in-process pool, -mode turns loadgen into a distributed
// fleet over the wire protocol (internal/wire) against a running
// cmd/jobserved, which takes the same pool flags (internal/poolflags).
// "-mode client" drives it with -submitters connections — closed-loop
// batched submitters by default, open-loop Poisson arrivals with -rate,
// or a -scenario/-trace replay paced over the network — recording
// completion latency into a mergeable log-linear histogram; "-mode
// agent" collects -fleet-size client reports (sparse histogram buckets
// over JSON) and merges them bucket-wise into the fleet-wide p50/p99 —
// percentiles cannot be averaged, so the buckets travel, not the
// quantiles. Client jobs are synthetic spin bodies scaled by -size
// (0 = no-op, the wire-overhead measurement); traces carry their own
// app names and sizes.
//
// Usage:
//
//	loadgen -runtime xgomptb+naws -workers 8 -submitters 8 -jobs 20
//	loadgen -mix fib,sort,nqueens -scale test -backlog 4 -v
//	loadgen -workers 8 -shards 4 -skew 0.75 -jobs 40
//	loadgen -workers 2 -submitters 16 -backlog 2 -priority-mix 1:1:6 -deadline 50ms -admit shed
//	loadgen -workers 2 -submitters 8 -tenants 4 -tenant-weights 0=2,1=2 -admit wfq
//	loadgen -submitters 2 -jobs 64 -batch 16 -admit reject
//	loadgen -scenario flash-crowd -workers 2 -admit shed
//	loadgen -scenario steady -workers 2 -batch 8
//	loadgen -scenario tenant-storm -workers 2 -admit wfq
//	loadgen -scenario zipf -seed 42 -emit testdata/scenarios/zipf.jsonl
//	loadgen -jobs 20 -record run.jsonl && loadgen -trace run.jsonl -admit reject
//	loadgen -mode client -addr 127.0.0.1:7077 -submitters 4 -jobs 200 -batch 32
//	loadgen -mode client -addr 127.0.0.1:7077 -rate 500 -jobs 1000
//	loadgen -mode client -addr 127.0.0.1:7077 -scenario flash-crowd -speed 4
//	loadgen -mode agent -listen 127.0.0.1:7078 -fleet-size 3
//	loadgen -mode client -addr HOST:7077 -fleet AGENT:7078 -jobs 500
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bots"
	"repro/internal/numa"
	"repro/internal/poolflags"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/xomp"
)

func main() {
	var (
		pf         = poolflags.Register(flag.CommandLine)
		zones      = flag.Int("zones", 2, "synthetic NUMA zones of the one-shard pool's team (rejected with -shards > 1)")
		submitters = flag.Int("submitters", 4, "concurrent submitter goroutines")
		jobs       = flag.Int("jobs", 8, "jobs per submitter")
		mix        = flag.String("mix", "fib,sort,nqueens", "comma-separated BOTS apps to cycle through")
		skew       = flag.Float64("skew", 0, "fraction of each submitter's jobs pinned to shard 0 (hot-shard scenario; needs -shards > 1)")
		prioMix    = flag.String("priority-mix", "0:1:0", "interactive:batch:background integer weights for each submitter's jobs")
		deadline   = flag.Duration("deadline", 0, "per-job completion deadline from submission (0 = none)")
		batchN     = flag.Int("batch", 1, "submit jobs in batches of N through SubmitBatchCtx (amortized admission); applies to closed-loop submitters and to -scenario/-trace replays")
		tenants    = flag.Int("tenants", 1, "spread closed-loop submitters over this many tenant ids (submitter s is tenant s mod N)")
		tenantWts  = flag.String("tenant-weights", "", "comma-separated id=weight fair-share assignments, e.g. 0=2,9=1 (closed-loop tenants, replays, and -record)")
		noVerify   = flag.Bool("noverify", false, "skip per-job result verification")
		verbose    = flag.Bool("v", false, "log every job")

		scenarioName = flag.String("scenario", "", "replay a generated scenario preset instead of closed-loop traffic: "+strings.Join(scenario.Names(), "|"))
		tracePath    = flag.String("trace", "", "replay a recorded job trace (.jsonl) instead of closed-loop traffic")
		seed         = flag.Uint64("seed", scenario.GoldenSeed, "scenario generation seed (with -scenario)")
		speed        = flag.Float64("speed", 1, "replay time compression: arrivals and deadlines run this times faster (with -scenario/-trace)")
		pinTenants   = flag.Bool("pin-tenants", false, "pin each replayed job's tenant to shard tenant%%shards instead of policy dispatch (with -scenario/-trace and -shards > 1)")
		emitPath     = flag.String("emit", "", "write the generated -scenario trace to this file and exit (regenerates the golden corpus)")
		recordPath   = flag.String("record", "", "record the closed-loop run's submit edge as a job trace to this file")
	)
	flag.Parse()
	if *scenarioName != "" && *tracePath != "" {
		fatal(fmt.Errorf("-scenario and -trace are mutually exclusive"))
	}
	// Fleet modes (-mode client|agent) leave for the network path here;
	// everything below is the in-process local mode.
	if *modeFlag != "local" {
		runFleetMode(*modeFlag, sharedFlags{
			submitters: *submitters, jobs: *jobs, batch: *batchN,
			prioMix: *prioMix, deadline: *deadline, tenants: *tenants, tenantWts: *tenantWts,
			scenarioName: *scenarioName, tracePath: *tracePath,
			seed: *seed, speed: *speed, verbose: *verbose,
		})
		return
	}
	if *emitPath != "" && *scenarioName == "" {
		fatal(fmt.Errorf("-emit needs -scenario (it writes a generated trace)"))
	}
	if *recordPath != "" && (*scenarioName != "" || *tracePath != "") {
		fatal(fmt.Errorf("-record captures closed-loop traffic; it does not apply to a replay"))
	}
	if *speed <= 0 {
		fatal(fmt.Errorf("-speed %v must be > 0", *speed))
	}
	if *pinTenants && pf.Shards < 2 {
		fatal(fmt.Errorf("-pin-tenants needs -shards > 1 (no shard to pin to)"))
	}
	if *batchN < 1 {
		fatal(fmt.Errorf("-batch %d must be >= 1", *batchN))
	}
	if *batchN > 1 && *skew > 0 {
		fatal(fmt.Errorf("-batch and -skew are incompatible (batches go through the dispatcher; pinning is per job)"))
	}
	if *batchN > 1 && *pinTenants {
		fatal(fmt.Errorf("-batch and -pin-tenants are incompatible (pinning is per job)"))
	}
	classPattern, err := parsePriorityMix(*prioMix)
	if err != nil {
		fatal(err)
	}
	if *tenants < 1 {
		fatal(fmt.Errorf("-tenants %d must be >= 1", *tenants))
	}
	weights, err := parseTenantWeights(*tenantWts)
	if err != nil {
		fatal(err)
	}
	if *deadline < 0 {
		fatal(fmt.Errorf("-deadline %v must be >= 0", *deadline))
	}
	if *submitters < 1 {
		fatal(fmt.Errorf("-submitters %d must be >= 1", *submitters))
	}
	if *jobs < 1 {
		fatal(fmt.Errorf("-jobs %d must be >= 1", *jobs))
	}
	if *zones < 1 {
		fatal(fmt.Errorf("-zones %d must be >= 1", *zones))
	}
	if *skew < 0 || *skew > 1 {
		fatal(fmt.Errorf("-skew %v must be in [0,1]", *skew))
	}
	if *skew > 0 && pf.Shards < 2 {
		fatal(fmt.Errorf("-skew needs -shards > 1 (nothing to skew against)"))
	}
	if pf.Shards > 1 {
		// Each shard of a multi-shard pool is its own single-zone domain, so
		// a -zones request cannot be honoured; reject it rather than ignore it.
		flag.CommandLine.Visit(func(f *flag.Flag) {
			if f.Name == "zones" {
				fatal(fmt.Errorf("-zones does not apply with -shards > 1 (each shard is one NUMA domain)"))
			}
		})
	}

	// scfg.Team is sized per shard: all -workers with the default one shard.
	scfg, sc, err := pf.Config()
	if err != nil {
		fatal(err)
	}

	// Trace-replay mode: -scenario/-trace swap the closed-loop submitters
	// for the deterministic replayer — same pool flags, recorded traffic.
	if *scenarioName != "" || *tracePath != "" {
		tr, err := loadTrace(*scenarioName, *tracePath, *seed)
		if err != nil {
			fatal(err)
		}
		if *emitPath != "" {
			if err := emitTrace(tr, *emitPath); err != nil {
				fatal(err)
			}
			fmt.Printf("loadgen: wrote %s (%d jobs over %v, seed %d) to %s\n",
				tr.Name, len(tr.Jobs), tr.Span().Round(time.Millisecond), tr.Seed, *emitPath)
			return
		}
		opts := replay.Options{Team: scfg.Team, Shards: scfg.Shards,
			Speed: *speed, PinTenants: *pinTenants, Scale: sc, TenantWeights: weights, Batch: *batchN}
		fmt.Printf("loadgen: replaying %s (%d jobs over %v) at %gx on %s (%d workers, %d shards, admit %s)\n",
			tr.Name, len(tr.Jobs), tr.Span().Round(time.Millisecond), *speed, pf.Runtime, pf.Workers, pf.Shards, pf.Admit)
		res, err := replay.ReplayJobs(tr, opts)
		if err != nil {
			fatal(err)
		}
		printReplayReport(res)
		return
	}

	names := strings.Split(*mix, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
	}

	// One benchmark instance per submitter, mix entry, and batch lane,
	// built before the clock starts so jobs/sec measures the task
	// service, not sequential input generation. Unbatched, a submitter
	// has at most one job in flight and RunTask re-initializes per-run
	// state, so one lane suffices; with -batch N up to N of a submitter's
	// jobs run concurrently, so each batch slot gets its own lane of
	// instances (slot b uses apps[s][b*len(names)+m]).
	lanes := *batchN
	apps := make([][]bots.Benchmark, *submitters)
	for s := range apps {
		apps[s] = make([]bots.Benchmark, lanes*len(names))
		for l := 0; l < lanes; l++ {
			for m, name := range names {
				b, err := bots.New(name, sc)
				if err != nil {
					fatal(err)
				}
				apps[s][l*len(names)+m] = b
			}
		}
	}

	// A one-shard pool's team spans -zones synthetic NUMA zones.
	if pf.Shards == 1 {
		scfg.Team.Topology = numa.Synthetic(pf.Workers, *zones)
	}
	pool, err := xomp.NewShardedPool(scfg)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	// pin routes a job to shard 0, the skewed hot-shard scenario.
	submit := func(pin bool, fn xomp.TaskFunc, opts xomp.SubmitOpts) (*xomp.Job, error) {
		if pin {
			return pool.SubmitToCtx(ctx, 0, fn, opts)
		}
		return pool.SubmitCtx(ctx, fn, opts)
	}
	fmt.Printf("loadgen: %d submitters x %d jobs, mix [%s] at scale %s, on %s (%d shards x %d workers, %d zones each, skew %.0f%%, admit %s)\n",
		*submitters, *jobs, strings.Join(names, " "), sc, pf.Runtime, pf.Shards, scfg.Team.Workers,
		pool.Team(0).Topology().Zones, *skew*100, pf.Admit)

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		perApp   sync.Map // app name -> *atomic.Int64
		classes  [int(xomp.NumClasses)]classStats
	)
	tenantStats := make([]classStats, *tenants)
	count := func(app string) {
		v, _ := perApp.LoadOrStore(app, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}

	// -record captures the submit edge live: one Record per submission
	// attempt, written out as a replayable job trace after the run.
	var rec *replay.Recorder
	if *recordPath != "" {
		rec = replay.NewRecorder()
	}

	start := time.Now()
	for s := 0; s < *submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// -batch N: the submitter admits its jobs in batches through
			// SubmitBatchCtx (one amortized admission decision per batch)
			// and then waits out the whole batch — the closed-loop shape
			// of a client that accumulates work before hitting the edge.
			// Per-item outcomes land in the same class/tenant tables as
			// single submissions; the admission latency each item observes
			// is its batch's single submit-call latency.
			if *batchN > 1 {
				items := make([]xomp.BatchItem, 0, *batchN)
				results := make([]xomp.BatchResult, *batchN)
				type slot struct {
					name   string
					app    bots.Benchmark
					class  xomp.Class
					tenant int
				}
				meta := make([]slot, 0, *batchN)
				for k := 0; k < *jobs; {
					n := *batchN
					if rem := *jobs - k; rem < n {
						n = rem
					}
					items, meta = items[:0], meta[:0]
					for b := 0; b < n; b++ {
						m := (s + k + b) % len(names)
						app := apps[s][b*len(names)+m]
						class := classPattern[(s+k+b)%len(classPattern)]
						tenant := s % *tenants
						so := xomp.SubmitOpts{
							Priority: class,
							Tenant:   xomp.Tenant{ID: tenant, Weight: weights[tenant]},
						}
						if *deadline > 0 {
							so.Deadline = time.Now().Add(*deadline)
						}
						if rec != nil {
							rec.Record(names[m], 0, int(class), *deadline, tenant)
						}
						items = append(items, xomp.BatchItem{Fn: app.RunTask, Opts: so})
						meta = append(meta, slot{names[m], app, class, tenant})
					}
					t0 := time.Now()
					res := results[:n]
					err := pool.SubmitBatchCtx(ctx, items, res)
					admitTime := time.Since(t0)
					if err != nil {
						fmt.Fprintf(os.Stderr, "submitter %d: batch submit: %v\n", s, err)
						failures.Add(1)
						return
					}
					for b := range res {
						mt := meta[b]
						classes[int(mt.class)].observe(admitTime, res[b].Err)
						tenantStats[mt.tenant].observe(admitTime, res[b].Err)
						if rerr := res[b].Err; rerr != nil {
							if errors.Is(rerr, xomp.ErrBacklogFull) || errors.Is(rerr, xomp.ErrShed) ||
								errors.Is(rerr, xomp.ErrDeadlineExceeded) {
								continue
							}
							fmt.Fprintf(os.Stderr, "submitter %d: submit %s: %v\n", s, mt.name, rerr)
							failures.Add(1)
							return
						}
						j := res[b].Job
						if err := j.Wait(); err != nil {
							fmt.Fprintf(os.Stderr, "submitter %d: job %d (%s): %v\n", s, j.ID(), mt.name, err)
							failures.Add(1)
							continue
						}
						if !*noVerify {
							if err := mt.app.Verify(); err != nil {
								fmt.Fprintf(os.Stderr, "submitter %d: verify %s: %v\n", s, mt.name, err)
								failures.Add(1)
								continue
							}
						}
						count(mt.name)
						if *verbose {
							fmt.Printf("submitter %d: job %d %s (%s, %v) ok: queue %v run %v on worker %d\n",
								s, j.ID(), mt.name, mt.app.Params(), mt.class, j.QueueDelay().Round(time.Microsecond),
								j.RunTime().Round(time.Microsecond), j.Worker())
						}
					}
					k += n
				}
				return
			}
			for k := 0; k < *jobs; k++ {
				m := (s + k) % len(names)
				name := names[m]
				b := apps[s][m]
				// The leading -skew fraction of every submitter's jobs is
				// pinned to shard 0, front-loading the hot shard.
				pin := *skew > 0 && k < int(*skew*float64(*jobs))
				class := classPattern[(s+k)%len(classPattern)]
				tenant := s % *tenants
				opts := xomp.SubmitOpts{
					Priority: class,
					Tenant:   xomp.Tenant{ID: tenant, Weight: weights[tenant]},
				}
				if *deadline > 0 {
					opts.Deadline = time.Now().Add(*deadline)
				}
				cs := &classes[int(class)]
				if rec != nil {
					rec.Record(name, 0, int(class), *deadline, tenant)
				}
				t0 := time.Now()
				j, err := submit(pin, b.RunTask, opts)
				admitTime := time.Since(t0)
				cs.observe(admitTime, err)
				tenantStats[tenant].observe(admitTime, err)
				if err != nil {
					// Rejections, sheds, and expiries are the admission
					// layer doing its job under load, not failures.
					if errors.Is(err, xomp.ErrBacklogFull) || errors.Is(err, xomp.ErrShed) ||
						errors.Is(err, xomp.ErrDeadlineExceeded) {
						continue
					}
					fmt.Fprintf(os.Stderr, "submitter %d: submit %s: %v\n", s, name, err)
					failures.Add(1)
					return
				}
				if err := j.Wait(); err != nil {
					fmt.Fprintf(os.Stderr, "submitter %d: job %d (%s): %v\n", s, j.ID(), name, err)
					failures.Add(1)
					continue
				}
				if !*noVerify {
					if err := b.Verify(); err != nil {
						fmt.Fprintf(os.Stderr, "submitter %d: verify %s: %v\n", s, name, err)
						failures.Add(1)
						continue
					}
				}
				count(name)
				if *verbose {
					fmt.Printf("submitter %d: job %d %s (%s, %v) ok: queue %v run %v on worker %d\n",
						s, j.ID(), name, b.Params(), class, j.QueueDelay().Round(time.Microsecond),
						j.RunTime().Round(time.Microsecond), j.Worker())
				}
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	shardStats := pool.Stats()
	if err := pool.Close(); err != nil {
		fatal(err)
	}

	total := *submitters * *jobs
	var admittedTotal int64
	for c := range classes {
		admittedTotal += classes[c].admitted.Load()
	}
	fmt.Printf("\n%d/%d jobs admitted in %v: %.1f jobs/sec\n", admittedTotal, total,
		elapsed.Round(time.Millisecond), float64(admittedTotal)/elapsed.Seconds())
	perApp.Range(func(k, v any) bool {
		fmt.Printf("  %-10s %d ok\n", k, v.(*atomic.Int64).Load())
		return true
	})
	fmt.Println("admission:")
	fmt.Printf("  %-12s %9s %9s %9s %9s %12s %12s\n",
		"class", "admitted", "rejected", "shed", "expired", "p50-admit", "p99-admit")
	for c := range classes {
		cs := &classes[c]
		if cs.attempts() == 0 {
			continue
		}
		p50, p99 := cs.latency()
		fmt.Printf("  %-12s %9d %9d %9d %9d %12v %12v\n",
			xomp.Class(c), cs.admitted.Load(), cs.rejected.Load(), cs.shed.Load(),
			cs.expired.Load(), p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	}
	if *tenants > 1 {
		fmt.Println("tenants:")
		fmt.Printf("  %-12s %9s %9s %9s %9s %12s %12s\n",
			"tenant", "admitted", "rejected", "shed", "expired", "p50-admit", "p99-admit")
		for t := range tenantStats {
			ts := &tenantStats[t]
			if ts.attempts() == 0 {
				continue
			}
			p50, p99 := ts.latency()
			w := weights[t]
			if w == 0 {
				w = 1
			}
			fmt.Printf("  %-12s %9d %9d %9d %9d %12v %12v\n",
				fmt.Sprintf("%d (w=%g)", t, w), ts.admitted.Load(), ts.rejected.Load(), ts.shed.Load(),
				ts.expired.Load(), p50.Round(time.Microsecond), p99.Round(time.Microsecond))
		}
	}

	var recs []xomp.JobRecord
	fmt.Println("per-shard:")
	for _, st := range shardStats {
		fmt.Printf("  shard %d: %d workers, %d jobs completed, migrated in %d / out %d\n",
			st.Shard, st.Workers, st.JobsCompleted, st.MigratedIn, st.MigratedOut)
		recs = append(recs, pool.Team(st.Shard).Profile().Jobs()...)
	}
	if len(recs) > 0 {
		queue := make([]time.Duration, 0, len(recs))
		run := make([]time.Duration, 0, len(recs))
		for _, r := range recs {
			queue = append(queue, r.QueueDelay())
			run = append(run, r.RunTime())
		}
		fmt.Printf("queue delay: %s\nrun time:    %s\n", distString(queue), distString(run))
	}
	if rec != nil {
		tr := rec.Trace("recorded")
		tr.Weights = weights
		if err := emitTrace(tr, *recordPath); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d submissions over %v to %s\n",
			len(tr.Jobs), tr.Span().Round(time.Millisecond), *recordPath)
	}
	if n := failures.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "%d job(s) failed\n", n)
		os.Exit(1)
	}
}

// loadTrace resolves the replay source: a generated scenario preset, or
// a recorded .jsonl trace file.
func loadTrace(scenarioName, tracePath string, seed uint64) (*replay.JobTrace, error) {
	if scenarioName != "" {
		return scenario.Generate(scenarioName, seed)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return replay.ReadJobTrace(f)
}

// emitTrace writes tr as JSONL to path.
func emitTrace(tr *replay.JobTrace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := tr.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReplayReport renders one replay.JobReplayResult the way the
// closed-loop report renders its admission table.
func printReplayReport(res replay.JobReplayResult) {
	fmt.Printf("\n%d/%d jobs completed in %v: %.1f jobs/sec\n",
		res.Completed, res.Jobs, res.Wall.Round(time.Millisecond), res.JobsPerSec)
	fmt.Printf("  %-12s %9s %9s %9s %9s %9s %12s %12s\n",
		"class", "submitted", "admitted", "rejected", "shed", "expired", "p50", "p99")
	for c := range res.PerClass {
		pc := res.PerClass[c]
		if pc.Submitted == 0 {
			continue
		}
		fmt.Printf("  %-12s %9d %9d %9d %9d %9d %12v %12v\n",
			xomp.Class(c), pc.Submitted, pc.Admitted, pc.Rejected, pc.Shed, pc.Expired,
			pc.P50.Round(time.Microsecond), pc.P99.Round(time.Microsecond))
	}
	if len(res.PerTenant) > 1 {
		ids := make([]int, 0, len(res.PerTenant))
		for id := range res.PerTenant {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Printf("  %-12s %9s %9s %9s %9s %9s %9s %12s %12s\n",
			"tenant", "submitted", "admitted", "rejected", "shed", "expired", "completed", "p99", "p99-admit")
		for _, id := range ids {
			pt := res.PerTenant[id]
			fmt.Printf("  %-12d %9d %9d %9d %9d %9d %9d %12v %12v\n",
				id, pt.Submitted, pt.Admitted, pt.Rejected, pt.Shed, pt.Expired, pt.Completed,
				pt.P99.Round(time.Microsecond), pt.AdmitP99.Round(time.Microsecond))
		}
	}
	if res.MigratedIn > 0 {
		fmt.Printf("  jobs migrated %d\n", res.MigratedIn)
	}
}

// distString summarizes a duration sample as min/median/p95/max, via the
// shared stats.Sample machinery.
func distString(d []time.Duration) string {
	var s stats.Sample
	for _, v := range d {
		s.AddDuration(v)
	}
	dur := func(secs float64) time.Duration {
		return time.Duration(secs * float64(time.Second)).Round(time.Microsecond)
	}
	return fmt.Sprintf("min %v  median %v  p95 %v  max %v",
		dur(s.Min()), dur(s.Percentile(50)), dur(s.Percentile(95)), dur(s.Max()))
}

// classStats accumulates one admission class's client-side counters and
// admission latencies (the time a Submit call spent at the edge).
type classStats struct {
	admitted, rejected, shed, expired atomic.Int64
	mu                                sync.Mutex
	lat                               stats.Sample
}

func (cs *classStats) observe(admitTime time.Duration, err error) {
	switch {
	case err == nil:
		cs.admitted.Add(1)
		cs.mu.Lock()
		cs.lat.AddDuration(admitTime)
		cs.mu.Unlock()
	case errors.Is(err, xomp.ErrBacklogFull):
		cs.rejected.Add(1)
	case errors.Is(err, xomp.ErrShed):
		cs.shed.Add(1)
	case errors.Is(err, xomp.ErrDeadlineExceeded):
		cs.expired.Add(1)
	}
}

func (cs *classStats) attempts() int64 {
	return cs.admitted.Load() + cs.rejected.Load() + cs.shed.Load() + cs.expired.Load()
}

func (cs *classStats) latency() (p50, p99 time.Duration) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	toDur := func(secs float64) time.Duration { return time.Duration(secs * float64(time.Second)) }
	return toDur(cs.lat.Percentile(50)), toDur(cs.lat.Percentile(99))
}

// parsePriorityMix expands "I:B:G" integer weights into a class pattern
// submitters rotate through, e.g. "1:1:2" → [interactive batch background
// background].
func parsePriorityMix(s string) ([]xomp.Class, error) {
	parts := strings.Split(s, ":")
	if len(parts) != int(xomp.NumClasses) {
		return nil, fmt.Errorf("-priority-mix %q: want %d colon-separated weights (interactive:batch:background)", s, xomp.NumClasses)
	}
	order := [...]xomp.Class{xomp.ClassInteractive, xomp.ClassBatch, xomp.ClassBackground}
	var pattern []xomp.Class
	for c, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-priority-mix %q: bad weight %q", s, p)
		}
		for i := 0; i < w; i++ {
			pattern = append(pattern, order[c])
		}
	}
	if len(pattern) == 0 {
		return nil, fmt.Errorf("-priority-mix %q: all weights zero", s)
	}
	return pattern, nil
}

// parseTenantWeights parses "id=weight,id=weight" into the fair-share
// weight map; an empty flag yields nil (every tenant at weight 1).
func parseTenantWeights(s string) (map[int]float64, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[int]float64)
	for _, part := range strings.Split(s, ",") {
		id, w, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("-tenant-weights %q: want id=weight, got %q", s, part)
		}
		tid, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil || tid < 0 {
			return nil, fmt.Errorf("-tenant-weights %q: bad tenant id %q", s, id)
		}
		wv, err := strconv.ParseFloat(strings.TrimSpace(w), 64)
		if err != nil || wv <= 0 {
			return nil, fmt.Errorf("-tenant-weights %q: bad weight %q (want > 0)", s, w)
		}
		weights[tid] = wv
	}
	return weights, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
