package main

// The fleet modes: loadgen grows from an in-process driver into a
// distributed harness. -mode client drives a remote cmd/jobserved over
// TCP with closed-loop batched submitters, open-loop Poisson arrivals,
// or a replayed trace; -mode agent merges the per-client reports of a
// whole fleet into one latency distribution, so N client processes on M
// machines report a single p50/p99.
//
// Cross-client percentiles cannot be merged from per-client
// percentiles, so every client records completion latencies into a
// log-linear stats.Histogram and ships the sparse buckets (JSON) to
// the agent, which merges them bucket-wise — the HDR-histogram trick.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/jobserve"
	"repro/internal/replay"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/xomp"
)

// Fleet-mode flags, registered alongside main's; only consulted when
// -mode is not "local".
var (
	modeFlag   = flag.String("mode", "local", "local (in-process pool) | client (drive a jobserved) | agent (merge fleet reports)")
	addrFlag   = flag.String("addr", "127.0.0.1:7077", "jobserved address to drive (-mode client)")
	listenFlag = flag.String("listen", "127.0.0.1:7078", "report listen address (-mode agent)")
	rateFlag   = flag.Float64("rate", 0, "open-loop Poisson arrival rate per connection in jobs/sec (-mode client; 0 = closed loop)")
	sizeFlag   = flag.Int("size", 0, "synthetic spin units per client job (-mode client; 0 = no-op body)")
	fleetFlag  = flag.String("fleet", "", "agent address to send this client's merged report to (-mode client)")
	fleetN     = flag.Int("fleet-size", 1, "client reports to wait for before printing the fleet summary (-mode agent)")
)

// fleetReport is the unit of cross-client aggregation: counts plus the
// sparse histogram buckets of OK-job completion latency (ns).
type fleetReport struct {
	Conns     int               `json:"conns"`
	Jobs      uint64            `json:"jobs"`
	Statuses  map[string]uint64 `json:"statuses"`
	ElapsedNS int64             `json:"elapsed_ns"`
	Buckets   map[int]uint64    `json:"buckets"`
}

// runFleetMode dispatches the non-local modes. It is called from main
// right after flag parsing, before any local-mode validation, with the
// handful of local flags the fleet modes share.
func runFleetMode(mode string, sh sharedFlags) {
	switch mode {
	case "client":
		runClientMode(sh)
	case "agent":
		runAgentMode(*listenFlag, *fleetN)
	default:
		fatal(fmt.Errorf("-mode %q: want local, client, or agent", mode))
	}
}

// sharedFlags carries the local-mode traffic flags the client mode
// reuses, so one flag vocabulary describes the traffic in process and
// over the wire.
type sharedFlags struct {
	submitters int
	jobs       int
	batch      int
	prioMix    string
	deadline   time.Duration
	tenants    int
	tenantWts  string

	scenarioName string
	tracePath    string
	seed         uint64
	speed        float64
	verbose      bool
}

// connPlan is one connection's pre-built submission schedule. arrivals
// is nil for closed-loop traffic; otherwise recs[i] goes on the wire at
// arrivals[i] after the run starts (open-loop: Poisson or trace).
type connPlan struct {
	recs     []wire.SubmitRecord
	arrivals []time.Duration
}

// connResult is what one connection contributes to the client report.
type connResult struct {
	jobs     uint64
	statuses [wire.NumStatus]uint64
	hist     stats.Histogram
	err      error
}

// runClientMode drives a jobserve server: -submitters connections, each
// with its own plan, all merged into one report (and optionally shipped
// to a fleet agent).
func runClientMode(sh sharedFlags) {
	classPattern, err := parsePriorityMix(sh.prioMix)
	if err != nil {
		fatal(err)
	}
	if sh.tenants < 1 {
		fatal(fmt.Errorf("-tenants %d must be >= 1", sh.tenants))
	}
	weights, err := parseTenantWeights(sh.tenantWts)
	if err != nil {
		fatal(err)
	}
	if sh.batch < 1 {
		fatal(fmt.Errorf("-batch %d must be >= 1", sh.batch))
	}
	if *rateFlag < 0 {
		fatal(fmt.Errorf("-rate %v must be >= 0", *rateFlag))
	}
	if sh.speed <= 0 {
		fatal(fmt.Errorf("-speed %v must be > 0", sh.speed))
	}
	conns := sh.submitters
	if conns < 1 {
		fatal(fmt.Errorf("-submitters %d must be >= 1", conns))
	}

	// One plan per connection, built before any clock starts.
	var tr *replay.JobTrace
	if sh.scenarioName != "" || sh.tracePath != "" {
		tr, err = loadTrace(sh.scenarioName, sh.tracePath, sh.seed)
		if err != nil {
			fatal(err)
		}
		if weights == nil {
			weights = tr.Weights
		}
	}
	plans := make([]connPlan, conns)
	for c := range plans {
		plans[c] = buildPlan(c, conns, sh, tr, classPattern, weights)
	}

	what := fmt.Sprintf("%d jobs/conn closed-loop (batch %d)", sh.jobs, sh.batch)
	if tr != nil {
		what = fmt.Sprintf("trace %s (%d jobs) at %gx", tr.Name, len(tr.Jobs), sh.speed)
	} else if *rateFlag > 0 {
		what = fmt.Sprintf("%d jobs/conn open-loop at %g jobs/sec/conn", sh.jobs, *rateFlag)
	}
	fmt.Printf("loadgen client: %d conn(s) -> %s, %s\n", conns, *addrFlag, what)

	bufs := alloc.NewBufPool()
	results := make([]connResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			driveConn(*addrFlag, bufs, plans[c], sh.batch, &results[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge the per-connection histograms and counters into one report.
	rep := fleetReport{
		Conns:     conns,
		Statuses:  make(map[string]uint64),
		ElapsedNS: int64(elapsed),
		Buckets:   make(map[int]uint64),
	}
	var merged stats.Histogram
	failed := 0
	for c := range results {
		r := &results[c]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "conn %d: %v\n", c, r.err)
			failed++
		}
		rep.Jobs += r.jobs
		for s, n := range r.statuses {
			if n > 0 {
				rep.Statuses[wire.Status(s).String()] += n
			}
		}
		merged.Merge(&r.hist)
	}
	merged.ForEachBucket(func(idx int, count uint64) { rep.Buckets[idx] = count })

	printFleetReport("client", &rep, &merged)
	if *fleetFlag != "" {
		if err := sendFleetReport(*fleetFlag, &rep); err != nil {
			fatal(fmt.Errorf("report to agent %s: %w", *fleetFlag, err))
		}
		fmt.Printf("reported to agent %s\n", *fleetFlag)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// buildPlan assembles connection c's submission schedule: its
// round-robin share of a trace, a Poisson arrival process, or a plain
// closed-loop record list.
func buildPlan(c, conns int, sh sharedFlags, tr *replay.JobTrace, classPattern []xomp.Class, weights map[int]float64) connPlan {
	var p connPlan
	if tr != nil {
		for i, ev := range tr.Jobs {
			if i%conns != c {
				continue
			}
			rec := wire.SubmitRecord{
				Class:             ev.Class,
				TenantID:          ev.Tenant,
				TenantMilliWeight: milliWeight(weights, ev.Tenant),
				Size:              ev.Size,
			}
			if ev.App != "" {
				rec.App = []byte(ev.App)
			}
			if ev.Deadline > 0 {
				rec.DeadlineNS = int64(float64(ev.Deadline) / sh.speed)
			}
			p.recs = append(p.recs, rec)
			p.arrivals = append(p.arrivals, time.Duration(float64(ev.At)/sh.speed))
		}
		return p
	}
	p.recs = make([]wire.SubmitRecord, sh.jobs)
	for k := range p.recs {
		tenant := c % sh.tenants
		p.recs[k] = wire.SubmitRecord{
			Class:             int(classPattern[(c+k)%len(classPattern)]),
			TenantID:          tenant,
			TenantMilliWeight: milliWeight(weights, tenant),
			Size:              *sizeFlag,
		}
		if sh.deadline > 0 {
			p.recs[k].DeadlineNS = int64(sh.deadline)
		}
	}
	if *rateFlag > 0 {
		// Open loop: exponential inter-arrival times at -rate jobs/sec,
		// seeded per connection so a fleet's processes stay independent.
		r := rng.New(sh.seed + uint64(c)*0x9e3779b97f4a7c15 + 1)
		p.arrivals = make([]time.Duration, sh.jobs)
		at := 0.0
		for k := range p.arrivals {
			at += -math.Log(1-r.Float64()) / *rateFlag
			p.arrivals[k] = time.Duration(at * float64(time.Second))
		}
	}
	return p
}

// milliWeight fixes a tenant's fair-share weight into the wire's
// fixed-point field (0 = default weight 1.0).
func milliWeight(weights map[int]float64, tenant int) int {
	if w, ok := weights[tenant]; ok {
		return int(w * 1000)
	}
	return 0
}

// driveConn runs one connection's plan to completion. Closed-loop plans
// submit one batch, wait for its results, repeat — the single-goroutine
// shape, so latency measures the full admit+run round trip under
// bounded concurrency. Open-loop plans pipeline: a receiver goroutine
// drains results while the submitter paces arrivals off the clock,
// coalescing every already-due record into one frame (one syscall).
func driveConn(addr string, bufs *alloc.BufPool, plan connPlan, batch int, out *connResult) {
	if len(plan.recs) == 0 {
		return
	}
	cl, err := jobserve.Dial(addr, bufs)
	if err != nil {
		out.err = err
		return
	}
	defer cl.Close()

	// origin holds the UnixNano each record's latency counts from, indexed
	// by seq (a fresh connection numbers records in plan order): closed
	// loop, the flush that carried it; open loop, the time it was due.
	origin := make([]int64, len(plan.recs))
	record := func(recs []wire.ResultRecord, now int64) {
		for _, r := range recs {
			out.jobs++
			out.statuses[r.Status]++
			if r.Status == wire.StatusOK && r.Seq < uint64(len(origin)) {
				out.hist.Record(now - origin[r.Seq])
			}
		}
	}

	if plan.arrivals == nil {
		// Closed loop: at most one batch in flight.
		for at := 0; at < len(plan.recs); {
			n := batch
			if rem := len(plan.recs) - at; rem < n {
				n = rem
			}
			seq, err := cl.Submit(plan.recs[at : at+n])
			if err == nil {
				err = cl.Flush()
			}
			if err != nil {
				out.err = err
				return
			}
			now := time.Now().UnixNano()
			for i := 0; i < n; i++ {
				origin[seq+uint64(i)] = now
			}
			for got := 0; got < n; {
				recs, err := cl.Recv()
				if err != nil {
					out.err = err
					return
				}
				record(recs, time.Now().UnixNano())
				got += len(recs)
			}
			at += n
		}
		return
	}

	// Open loop: pipelined, and timed from the schedule, not from the
	// send: a record the generator puts on the wire late — behind a stalled
	// server or its own lag — has been waiting since it was due. The
	// origins are all written before the receiver, which owns out, starts.
	start := time.Now()
	for i, at := range plan.arrivals {
		origin[i] = start.Add(at).UnixNano()
	}
	done := make(chan error, 1)
	go func() {
		var got uint64
		for got < uint64(len(plan.recs)) {
			recs, err := cl.Recv()
			if err != nil {
				done <- err
				return
			}
			record(recs, time.Now().UnixNano())
			got += uint64(len(recs))
		}
		done <- nil
	}()
	for at := 0; at < len(plan.recs); {
		if d := plan.arrivals[at] - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		// Coalesce everything already due, up to one batch.
		n := 1
		for at+n < len(plan.recs) && n < batch && plan.arrivals[at+n] <= time.Since(start) {
			n++
		}
		_, err := cl.Submit(plan.recs[at : at+n])
		if err == nil {
			err = cl.Flush()
		}
		if err != nil {
			out.err = err
			return
		}
		at += n
	}
	out.err = <-done
}

// sendFleetReport ships one JSON report to the agent.
func sendFleetReport(addr string, rep *fleetReport) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(conn).Encode(rep); err != nil {
		conn.Close()
		return err
	}
	return conn.Close()
}

// runAgentMode collects n client reports and prints the fleet-wide
// merged distribution: the only place a multi-process run's true p99
// exists.
func runAgentMode(listen string, n int) {
	if n < 1 {
		fatal(fmt.Errorf("-fleet-size %d must be >= 1", n))
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatal(err)
	}
	defer ln.Close()
	fmt.Printf("loadgen agent: waiting for %d report(s) on %s\n", n, ln.Addr())

	total := fleetReport{Statuses: make(map[string]uint64)}
	var merged stats.Histogram
	for got := 0; got < n; got++ {
		conn, err := ln.Accept()
		if err != nil {
			fatal(err)
		}
		var rep fleetReport
		err = json.NewDecoder(conn).Decode(&rep)
		conn.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen agent: bad report from %s: %v\n", conn.RemoteAddr(), err)
			got--
			continue
		}
		total.Conns += rep.Conns
		total.Jobs += rep.Jobs
		for s, c := range rep.Statuses {
			total.Statuses[s] += c
		}
		if rep.ElapsedNS > total.ElapsedNS {
			total.ElapsedNS = rep.ElapsedNS
		}
		for idx, count := range rep.Buckets {
			merged.AddBucket(idx, count)
		}
		fmt.Printf("  report %d/%d from %s: %d jobs over %d conn(s)\n",
			got+1, n, conn.RemoteAddr(), rep.Jobs, rep.Conns)
	}
	printFleetReport("fleet", &total, &merged)
}

// printFleetReport renders one merged report: throughput, per-status
// counts, and the completion-latency percentiles from the histogram.
func printFleetReport(who string, rep *fleetReport, h *stats.Histogram) {
	elapsed := time.Duration(rep.ElapsedNS)
	rate := 0.0
	if elapsed > 0 {
		rate = float64(rep.Jobs) / elapsed.Seconds()
	}
	fmt.Printf("\n%s: %d jobs over %d conn(s) in %v: %.1f jobs/sec\n",
		who, rep.Jobs, rep.Conns, elapsed.Round(time.Millisecond), rate)
	for s := 0; s < wire.NumStatus; s++ {
		name := wire.Status(s).String()
		if c := rep.Statuses[name]; c > 0 {
			fmt.Printf("  %-14s %d\n", name, c)
		}
	}
	if h.Count() > 0 {
		dur := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
		fmt.Printf("completion latency: p50 %v  p90 %v  p99 %v  max %v (%d samples)\n",
			dur(h.Percentile(50)), dur(h.Percentile(90)), dur(h.Percentile(99)), dur(h.Max()), h.Count())
	}
}
