// Command loadgen drives a shared task service (xomp.ShardedPool) with
// concurrent submitters over a mix of BOTS workloads (fib, sort and
// nqueens in rotation) — the traffic shape a job-server runtime must
// sustain: many independent clients, heterogeneous task trees, persistent
// worker teams.
//
// Each submitter goroutine submits jobs back-to-back, cycling through the
// workload mix; every job is verified against its application's sequential
// reference. The report covers throughput (jobs/sec), per-application
// counts, admission outcomes per tenant, and queue-delay/run-time
// statistics from the per-job profile.
//
// The pool flags are internal/poolflags', shared with cmd/jobserved. The
// default, -shards 1, is the one-shard pool: a single shared team over
// -zones synthetic NUMA zones. With -shards N > 1 the same total worker
// count is split into N single-zone shards: jobs are placed by the
// power-of-two-choices dispatcher and a second-level balancer moves jobs
// queued behind busy workers to a shard with an idle one. The report
// lists every shard's completion and NJOBS_MIGRATED counts. -admit
// selects the admission policy; rejected and shed submissions are not
// failures — they are the admission layer working — and the report
// counts them next to the p50/p99 admission latency (time a Submit call
// spent at the edge before its job entered a queue).
//
// -batch N drives the fast-path submission API: closed-loop submitters
// accumulate N jobs and admit them through one SubmitBatchCtx call
// (amortized admission with per-job typed-error results). -tenants N
// spreads the submitters over N tenant ids (submitter s submits as tenant
// s mod N).
//
// loadgen is also the corpus tool: -record captures a closed-loop run's
// submit edge as a job trace (cmd/whatif replays it), and -scenario with
// -emit writes a generated workload preset (steady, flash-crowd, zipf,
// diurnal, deadline-mix, tenant-storm — see internal/scenario) from the
// golden seed, which is how the corpus under testdata/scenarios/ is
// (re)generated.
//
// "-mode client" drives a running cmd/jobserved over the wire protocol
// (internal/wire) instead of an in-process pool, with -submitters
// connections: closed-loop batched submitters, or with -scenario a
// replay of the preset paced over the network, each record timed from
// when it was due. Completion latency is recorded into a log-linear
// histogram. Client jobs are synthetic spin bodies scaled by -size (0 =
// no-op, the wire-overhead measurement); traces carry their own app
// names and sizes.
//
// Usage:
//
//	loadgen -runtime xgomptb+naws -workers 8 -submitters 8 -jobs 20
//	loadgen -workers 8 -shards 4 -jobs 40 -admit shed
//	loadgen -workers 2 -submitters 8 -tenants 4 -admit wfq
//	loadgen -submitters 2 -jobs 64 -batch 16 -admit reject
//	loadgen -scenario zipf -emit testdata/scenarios/zipf.jsonl
//	loadgen -jobs 20 -record run.jsonl && whatif -in run.jsonl
//	loadgen -mode client -addr 127.0.0.1:7077 -submitters 4 -jobs 200 -batch 32
//	loadgen -mode client -addr 127.0.0.1:7077 -scenario flash-crowd
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
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

// mix is the workload rotation of the in-process submitters.
var mix = []string{"fib", "sort", "nqueens"}

func main() {
	var (
		pf           = poolflags.Register(flag.CommandLine)
		zones        = flag.Int("zones", 2, "synthetic NUMA zones of the one-shard pool's team (rejected with -shards > 1)")
		submitters   = flag.Int("submitters", 4, "concurrent submitter goroutines (-mode client: connections)")
		jobs         = flag.Int("jobs", 8, "jobs per submitter")
		batchN       = flag.Int("batch", 1, "submit jobs in batches of N through SubmitBatchCtx (amortized admission); -mode client: jobs per frame")
		tenants      = flag.Int("tenants", 1, "spread submitters over this many tenant ids (submitter s is tenant s mod N)")
		scenarioName = flag.String("scenario", "", "generated scenario preset, for -emit or a -mode client replay: "+strings.Join(scenario.Names(), "|"))
		emitPath     = flag.String("emit", "", "write the generated -scenario trace to this file and exit (regenerates the golden corpus)")
		recordPath   = flag.String("record", "", "record the closed-loop run's submit edge as a job trace to this file")
		mode         = flag.String("mode", "local", "local (in-process pool) | client (drive a jobserved)")
		addr         = flag.String("addr", "127.0.0.1:7077", "jobserved address to drive (-mode client)")
		size         = flag.Int("size", 0, "synthetic spin units per client job (-mode client; 0 = no-op body)")
	)
	flag.Parse()
	if *batchN < 1 {
		fatal(fmt.Errorf("-batch %d must be >= 1", *batchN))
	}
	if *tenants < 1 {
		fatal(fmt.Errorf("-tenants %d must be >= 1", *tenants))
	}
	if *submitters < 1 {
		fatal(fmt.Errorf("-submitters %d must be >= 1", *submitters))
	}
	if *jobs < 1 {
		fatal(fmt.Errorf("-jobs %d must be >= 1", *jobs))
	}
	var tr *replay.JobTrace
	if *scenarioName != "" {
		var err error
		if tr, err = scenario.Generate(*scenarioName, scenario.GoldenSeed); err != nil {
			fatal(err)
		}
	}
	switch *mode {
	case "local":
	case "client":
		runClientMode(*addr, clientFlags{conns: *submitters, jobs: *jobs, batch: *batchN, tenants: *tenants, size: *size}, tr)
		return
	default:
		fatal(fmt.Errorf("-mode %q: want local or client", *mode))
	}
	if (*emitPath != "") != (tr != nil) {
		fatal(fmt.Errorf("-emit and -scenario go together in local mode (replay a scenario with whatif, or over the wire with -mode client)"))
	}
	if tr != nil {
		if err := emitTrace(tr, *emitPath); err != nil {
			fatal(err)
		}
		fmt.Printf("loadgen: wrote %s (%d jobs over %v, seed %d) to %s\n",
			tr.Name, len(tr.Jobs), tr.Span().Round(time.Millisecond), tr.Seed, *emitPath)
		return
	}
	if *zones < 1 {
		fatal(fmt.Errorf("-zones %d must be >= 1", *zones))
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

	// One benchmark instance per submitter, mix entry, and batch lane,
	// built before the clock starts so jobs/sec measures the task
	// service, not sequential input generation. Unbatched, a submitter
	// has at most one job in flight and RunTask re-initializes per-run
	// state, so one lane suffices; with -batch N up to N of a submitter's
	// jobs run concurrently, so each batch slot gets its own lane of
	// instances (slot b uses apps[s][b*len(mix)+m]).
	lanes := *batchN
	apps := make([][]bots.Benchmark, *submitters)
	for s := range apps {
		apps[s] = make([]bots.Benchmark, lanes*len(mix))
		for l := 0; l < lanes; l++ {
			for m, name := range mix {
				b, err := bots.New(name, sc)
				if err != nil {
					fatal(err)
				}
				apps[s][l*len(mix)+m] = b
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
	fmt.Printf("loadgen: %d submitters x %d jobs, mix [%s] at scale %s, on %s (%d shards x %d workers, %d zones each, admit %s)\n",
		*submitters, *jobs, strings.Join(mix, " "), sc, pf.Runtime, pf.Shards, scfg.Team.Workers,
		pool.Team(0).Topology().Zones, pf.Admit)

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		perApp   sync.Map // app name -> *atomic.Int64
	)
	tenantStats := make([]admitStats, *tenants)
	count := func(app string) {
		v, _ := perApp.LoadOrStore(app, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}
	// done books one admitted job once it has completed: its result is
	// verified against the app's sequential reference.
	done := func(s int, j *xomp.Job, name string, app bots.Benchmark) {
		if err := j.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "submitter %d: job %d (%s): %v\n", s, j.ID(), name, err)
			failures.Add(1)
			return
		}
		if err := app.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "submitter %d: verify %s: %v\n", s, name, err)
			failures.Add(1)
			return
		}
		count(name)
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
			tenant := s % *tenants
			opts := xomp.SubmitOpts{Tenant: xomp.Tenant{ID: tenant}}
			ts := &tenantStats[tenant]
			// The submitter admits its jobs in batches of up to -batch
			// through SubmitBatchCtx (one amortized admission decision per
			// batch) and then waits out the whole batch — the closed-loop
			// shape of a client that accumulates work before hitting the
			// edge. The admission latency each item observes is its
			// batch's single submit-call latency; an unbatched submitter
			// submits one job at a time through SubmitCtx.
			items := make([]xomp.BatchItem, 0, *batchN)
			results := make([]xomp.BatchResult, *batchN)
			for k := 0; k < *jobs; {
				n := min(*batchN, *jobs-k)
				items = items[:0]
				for b := 0; b < n; b++ {
					m := (s + k + b) % len(mix)
					if rec != nil {
						rec.Record(mix[m], 0, int(xomp.ClassBatch), 0, tenant)
					}
					items = append(items, xomp.BatchItem{Fn: apps[s][b*len(mix)+m].RunTask, Opts: opts})
				}
				res := results[:n]
				t0 := time.Now()
				var err error
				if n == 1 {
					res[0].Job, res[0].Err = pool.SubmitCtx(ctx, items[0].Fn, opts)
				} else {
					err = pool.SubmitBatchCtx(ctx, items, res)
				}
				admitTime := time.Since(t0)
				if err != nil {
					fmt.Fprintf(os.Stderr, "submitter %d: batch submit: %v\n", s, err)
					failures.Add(1)
					return
				}
				for b := range res {
					m := (s + k + b) % len(mix)
					ts.observe(admitTime, res[b].Err)
					if rerr := res[b].Err; rerr != nil {
						// Rejections and sheds are the admission layer
						// doing its job under load, not failures.
						if errors.Is(rerr, xomp.ErrBacklogFull) || errors.Is(rerr, xomp.ErrShed) {
							continue
						}
						fmt.Fprintf(os.Stderr, "submitter %d: submit %s: %v\n", s, mix[m], rerr)
						failures.Add(1)
						return
					}
					done(s, res[b].Job, mix[m], apps[s][b*len(mix)+m])
				}
				k += n
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
	for t := range tenantStats {
		admittedTotal += tenantStats[t].admitted.Load()
	}
	fmt.Printf("\n%d/%d jobs admitted in %v: %.1f jobs/sec\n", admittedTotal, total,
		elapsed.Round(time.Millisecond), float64(admittedTotal)/elapsed.Seconds())
	perApp.Range(func(k, v any) bool {
		fmt.Printf("  %-10s %d ok\n", k, v.(*atomic.Int64).Load())
		return true
	})
	fmt.Println("admission:")
	fmt.Printf("  %-12s %9s %9s %9s %12s %12s\n",
		"tenant", "admitted", "rejected", "shed", "p50-admit", "p99-admit")
	for t := range tenantStats {
		ts := &tenantStats[t]
		p50, p99 := ts.latency()
		fmt.Printf("  %-12d %9d %9d %9d %12v %12v\n",
			t, ts.admitted.Load(), ts.rejected.Load(), ts.shed.Load(),
			p50.Round(time.Microsecond), p99.Round(time.Microsecond))
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

// admitStats accumulates one tenant's client-side admission counters
// and admission latencies (the time a Submit call spent at the edge).
type admitStats struct {
	admitted, rejected, shed atomic.Int64
	mu                       sync.Mutex
	lat                      stats.Sample
}

func (a *admitStats) observe(admitTime time.Duration, err error) {
	switch {
	case err == nil:
		a.admitted.Add(1)
		a.mu.Lock()
		a.lat.AddDuration(admitTime)
		a.mu.Unlock()
	case errors.Is(err, xomp.ErrBacklogFull):
		a.rejected.Add(1)
	case errors.Is(err, xomp.ErrShed):
		a.shed.Add(1)
	}
}

func (a *admitStats) latency() (p50, p99 time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	toDur := func(secs float64) time.Duration { return time.Duration(secs * float64(time.Second)) }
	return toDur(a.lat.Percentile(50)), toDur(a.lat.Percentile(99))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
