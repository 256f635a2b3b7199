package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/alloc"
	"repro/internal/jobserve"
	"repro/internal/load"
	"repro/internal/prof"
)

// minLatencySamples is the fewest latency samples a p99 is taken over: ten
// samples beyond the percentile.
const minLatencySamples = 1000

// harness is what every rep of a run shares.
type harness struct {
	root      string        // repository root
	out       string        // benchmarks/out: traces, stack dumps, the built jobserved
	bin       string        // the built jobserved
	slack     time.Duration // watchdog: a rep may take its measured time plus this
	warmScale float64

	// Placement: while a rep is on, the load generator runs on clientCPUs,
	// the server on serverCPUs and a spinner on each of allCPUs. All nil on a
	// single-CPU host or where the sandbox forbids placement.
	allCPUs, clientCPUs, serverCPUs []int
}

// place decides where a rep's processes run: the load generator on the
// first CPU this process may use, the server on the rest, and a spinner on
// each (see host.go). A single-CPU host gets no placement. It tries all
// three mechanisms once, so that a rep cannot fail on them later.
func (h *harness) place() error {
	all, err := allowedCPUs()
	if err != nil || len(all) < 2 {
		return err
	}
	if err := confineProcess(all); err != nil {
		return err
	}
	spinners, err := startSpinners(all[:1])
	if err != nil {
		return err
	}
	stopSpinners(spinners)
	h.allCPUs, h.clientCPUs, h.serverCPUs = all, all[:1], all[1:]
	return nil
}

// repResult is one rep: a fresh jobserved, warmed up, measured, shut down.
type repResult struct {
	workload *workload
	traced   bool
	client   *clientResult
	exit     exitReport

	setupS      float64 // exec → listening → dial → warm-up complete
	serverCPUus float64 // child utime+stime over the measured window
	clientCPUus float64 // this process, same window
	stealShare  float64
	spinNSPerKU float64
	noisy       bool
	violations  []string // conservation checks that failed
	failed      int64
	budget      *budget
	e2e         map[string]float64 // the end-to-end metrics by name; no lat_p99_us when withheld
	p99Withheld string             // why lat_p99_us is null, if it is
}

// errWatchdog marks a rep that blew its hard deadline.
var errWatchdog = errors.New("watchdog: rep exceeded its deadline")

// withWatchdog runs fn under a hard deadline. On expiry it dumps this
// process's goroutines to out/watchdog-<name>-client.txt, calls onExpire
// (which deals with the server side), cancels fn's context, waits for fn
// to return and reports errWatchdog.
func (h *harness) withWatchdog(name string, limit time.Duration, onExpire func(), fn func(context.Context) error) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fn(ctx) }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	path := filepath.Join(h.out, "watchdog-"+name+"-client.txt")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench: watchdog dump:", err)
	}
	fmt.Fprintf(os.Stderr, "svcbench: %s hung for %v; client goroutines dumped to %s\n", name, limit, path)
	onExpire()
	cancel()
	<-done
	return errWatchdog
}

// runRep runs one rep of wl against a fresh child jobserved.
func (h *harness) runRep(wl *workload, seed uint64, seconds float64, traced bool) (*repResult, error) {
	rep := &repResult{workload: wl, traced: traced}
	rep.spinNSPerKU = spinNSPerKUnit()
	steal0, total0, err := cpuJiffies()
	if err != nil {
		return nil, err
	}

	if h.clientCPUs != nil {
		if err := confineProcess(h.clientCPUs); err != nil {
			return nil, err
		}
		// Back to every CPU for the in-process passes; place has shown the
		// call works, and a failure would only leave those passes on one CPU.
		defer confineProcess(h.allCPUs)
		spinners, err := startSpinners(h.allCPUs)
		if err != nil {
			return nil, err
		}
		defer stopSpinners(spinners)
	}

	t0 := time.Now()
	srv, err := startChild(h.bin, wl.server.args(), h.serverCPUs)
	if err != nil {
		return nil, err
	}
	defer srv.kill() // no path out of here leaves a server running
	pid := srv.cmd.Process.Pid

	var ticks0, ticks1 uint64
	var self0, self1 float64
	opts := driveOpts{
		seed: seed, seconds: seconds, warmScale: h.warmScale, traced: traced,
		measureStart: func() {
			rep.setupS = time.Since(t0).Seconds()
			ticks0, _ = cpuTicks(pid) // a dead child fails the drive, not this read
			self0 = selfCPUus()
		},
		measureEnd: func() {
			ticks1, _ = cpuTicks(pid)
			self1 = selfCPUus()
		},
	}
	limit := time.Duration((wl.warmS+seconds)*float64(time.Second)) + h.slack
	err = h.withWatchdog(wl.name, limit, func() {
		path := filepath.Join(h.out, "watchdog-"+wl.name+"-server.txt")
		if werr := os.WriteFile(path, []byte(srv.quitAndCapture()), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "svcbench: watchdog dump:", werr)
		}
		fmt.Fprintf(os.Stderr, "svcbench: %s: server goroutines dumped to %s\n", wl.name, path)
	}, func(ctx context.Context) error {
		var err error
		rep.client, err = drive(ctx, wl, srv.addr, opts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	exit, stopErr := srv.stop()
	rep.exit = exit

	steal1, total1, err := cpuJiffies()
	if err != nil {
		return nil, err
	}
	rep.stealShare = stealShare(steal0, total0, steal1, total1)
	rep.noisy = rep.stealShare > maxStealShare
	rep.serverCPUus = float64(ticks1-ticks0) * usPerTick
	rep.clientCPUus = self1 - self0

	// Conservation: every seq answered exactly once, and the server saw
	// what the client sent and answered all of it.
	c := rep.client
	rep.failed = c.attempted - c.good
	check := func(ok bool, format string, args ...any) {
		if !ok {
			rep.violations = append(rep.violations, fmt.Sprintf(format, args...))
		}
	}
	check(stopErr == nil, "%v", stopErr)
	check(c.twice == 0 && c.missing == 0 && c.bogus == 0,
		"seqs answered twice %d, never %d, never sent %d", c.twice, c.missing, c.bogus)
	if stopErr == nil {
		check(uint64(c.sentAll) == exit.jobsIn && exit.jobsIn == exit.resultsOut,
			"client sent %d, server jobs in %d, results out %d", c.sentAll, exit.jobsIn, exit.resultsOut)
	}
	check(c.zeroRun == 0, "%d working jobs reported RunNS == 0", c.zeroRun)
	if c.tailWindows == 0 {
		rep.p99Withheld = fmt.Sprintf("%d latency samples in %.2fs: no whole-second window holds %d", len(c.lat), c.measuredS, minLatencySamples)
	}
	rep.e2e = rep.endToEnd()
	if traced {
		rep.budget = buildBudget(c)
		if err := writeTrace(filepath.Join(h.out, "trace-"+wl.name+".jsonl"), c); err != nil {
			return nil, err
		}
		c.conns = nil // the raw spans are large; the budget and the file have them now
	}
	return rep, nil
}

// endToEnd returns the rep's end-to-end metric values by name. lat_p99_us
// is absent when the rep has too few samples.
func (r *repResult) endToEnd() map[string]float64 {
	c := r.client
	m := map[string]float64{
		"setup_s":  r.setupS,
		"ok_share": 1,
	}
	if c.attempted > 0 {
		m["ok_share"] = float64(c.good) / float64(c.attempted)
	}
	if c.measuredS > 0 {
		m["jobs_per_s"] = float64(c.good) / c.measuredS
	}
	if c.good > 0 {
		m["server_cpu_us_per_job"] = r.serverCPUus / float64(c.good)
		m["lat_p50_us"] = quantile(c.lat, 0.50) / 1e3
		if r.p99Withheld == "" {
			m["lat_p99_us"] = c.tailP99 / 1e3
		}
	}
	return m
}

// embeddedCounters is the 2s in-process pass: the same workload against
// jobserve.Serve inside this process, for counters only — the profile,
// allocator and heap numbers a child process does not export.
func (h *harness) embeddedCounters(wl *workload, seed uint64, seconds float64) (map[string]float64, error) {
	pool, err := wl.server.pool()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, err
	}
	srv, err := jobserve.Serve(ln, jobserve.Config{Pool: pool})
	if err != nil {
		ln.Close()
		pool.Close()
		return nil, err
	}
	var m0, m1 runtime.MemStats
	var res *clientResult
	limit := time.Duration((wl.warmS+seconds)*float64(time.Second)) + h.slack
	err = h.withWatchdog(wl.name+"-embedded", limit, func() {}, func(ctx context.Context) error {
		var err error
		res, err = drive(ctx, wl, srv.Addr().String(), driveOpts{
			seed: seed, seconds: seconds, warmScale: h.warmScale,
			measureStart: func() { runtime.ReadMemStats(&m0) },
			measureEnd:   func() { runtime.ReadMemStats(&m1) },
		})
		return err
	})
	if err != nil {
		// A hung pool would hang Close too; the process is about to fail.
		return nil, fmt.Errorf("%s embedded: %w", wl.name, err)
	}
	srv.Close() // returns the listener's close error, which nothing here can act on
	if err := pool.Close(); err != nil {
		return nil, err
	}

	// The per-thread counters are owner-written, so they are read only now
	// that the workers have exited. They cover warm-up too; every ratio
	// below divides by a count over the same span.
	var (
		sum              [prof.NumCounters]uint64
		jobs             uint64
		admitOK, refused uint64
		admitLat         []int64
		st               alloc.Stats
	)
	for s := 0; s < pool.Shards(); s++ {
		tm := pool.Team(s)
		p := tm.Profile()
		for c := prof.Counter(0); c < prof.NumCounters; c++ {
			sum[c] += p.Sum(c)
		}
		jobs += p.JobsTotal()
		for class := 0; class < int(load.NumClasses); class++ {
			for o := prof.AdmitOutcome(0); o < prof.NumAdmitOutcomes; o++ {
				if o == prof.AdmitAdmitted {
					admitOK += p.AdmitCount(class, o)
				} else {
					refused += p.AdmitCount(class, o)
				}
			}
			admitLat = append(admitLat, p.AdmitLatencies(class)...)
		}
		a := tm.AllocStats()
		st.FreshAllocs += a.FreshAllocs
		st.LocalHits += a.LocalHits
		st.RemoteAcquires += a.RemoteAcquires
		st.GlobalHits += a.GlobalHits
	}
	slices.Sort(admitLat)
	hits := st.LocalHits + st.RemoteAcquires + st.GlobalHits
	measured := float64(max(res.good, 1))
	return map[string]float64{
		"core.tasks_per_job":     ratio(sum[prof.CntTasksExecuted], jobs),
		"core.steal_req_per_job": ratio(sum[prof.CntReqSent], jobs),
		"core.steal_hit_ratio":   ratio(sum[prof.CntReqHasSteal], sum[prof.CntReqHandled]),
		"core.imm_exec_share":    ratio(sum[prof.CntImmExec], sum[prof.CntTasksExecuted]),
		"core.stolen_share":      ratio(sum[prof.CntTasksStolen], sum[prof.CntTasksExecuted]),
		"load.admit_ok":          float64(admitOK),
		"load.admit_refused":     float64(refused),
		"load.admit_lat_p50_us":  quantile(admitLat, 0.50) / 1e3,
		"alloc.task_hit_ratio":   ratio(hits, hits+st.FreshAllocs),
		"proc.allocs_per_job":    float64(m1.Mallocs-m0.Mallocs) / measured,
		"proc.bytes_per_job":     float64(m1.TotalAlloc-m0.TotalAlloc) / measured,
		"proc.gc_pause_us_per_s": float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e3 / max(res.measuredS, 1e-9),
	}, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics returns the per-layer metrics a traced rep and its
// untraced reference rep give: client-loop spans, the server's exit
// report, and the harness's own numbers.
func layerMetrics(ref, tr *repResult) map[string]float64 {
	c, b, x := tr.client, tr.budget, tr.exit
	var queue, run []int64
	for class := range c.queue {
		queue = append(queue, c.queue[class]...)
		run = append(run, c.run[class]...)
	}
	slices.Sort(queue)
	slices.Sort(run)
	m := map[string]float64{
		"wire.encode_ns":                 quantile(b.encode, 0.50),
		"wire.decode_ns":                 quantile(b.decode, 0.50),
		"jobserve.flush_ns":              quantile(b.flush, 0.50),
		"jobserve.wait_ns":               quantile(b.wait, 0.50),
		"core.queue_ns.p50":              quantile(queue, 0.50),
		"core.queue_ns.p99":              quantile(queue, 0.99),
		"core.run_ns.p50":                quantile(run, 0.50),
		"core.run_ns.p99":                quantile(run, 0.99),
		"jobserve.edge_residual_ns":      quantile(c.residual, 0.50),
		"jobserve.jobs_per_frame_in":     ratio(x.jobsIn, x.framesIn),
		"jobserve.results_per_frame_out": ratio(x.resultsOut, x.framesOut),
		"jobserve.bytes_per_job_in":      ratio(x.bytesIn, x.jobsIn),
		"jobserve.bytes_per_job_out":     ratio(x.bytesOut, x.resultsOut),
		"jobserve.refused":               float64(x.refused),
		"xomp.migrated_share":            ratio(x.migratedIn, x.completed),
		"loadgen.gen_lag_p50_us":         quantile(ref.client.lag, 0.50) / 1e3,
		"loadgen.gen_lag_p99_us":         quantile(ref.client.lag, 0.99) / 1e3,
		"loadgen.client_cpu_us_per_job":  ref.clientCPUus / float64(max(ref.client.good, 1)),
		"host.steal_share":               ref.stealShare,
		"host.spin_ns_per_kunit":         ref.spinNSPerKU,
		"harness.trace_overhead_share":   0,
	}
	for class := load.Class(0); class < load.NumClasses; class++ {
		m["core.queue_ns.p99."+class.String()] = quantile(c.queue[class], 0.99)
		m["core.run_ns.p50."+class.String()] = quantile(c.run[class], 0.50)
	}
	refRate, trRate := ref.e2e["jobs_per_s"], tr.e2e["jobs_per_s"]
	if refRate > 0 {
		m["harness.trace_overhead_share"] = 1 - trRate/refRate
	}
	return m
}
