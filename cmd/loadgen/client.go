package main

// The client mode: loadgen drives a remote cmd/jobserved over TCP with
// closed-loop batched submitters or a scenario replay, recording every
// OK job's completion latency into a log-linear stats.Histogram.

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/jobserve"
	"repro/internal/replay"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/xomp"
)

// clientFlags carries the traffic flags the client mode shares with the
// local mode, so one flag vocabulary describes the traffic in process and
// over the wire.
type clientFlags struct {
	conns, jobs, batch, tenants, size int
}

// connPlan is one connection's pre-built submission schedule. arrivals
// is nil for closed-loop traffic; otherwise recs[i] goes on the wire at
// arrivals[i] after the run starts (open loop: a trace replay).
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

// runClientMode drives a jobserve server at addr: one connection per
// submitter, each with its own plan (its share of tr, if tr is set), all
// merged into one report.
func runClientMode(addr string, cf clientFlags, tr *replay.JobTrace) {
	plans := make([]connPlan, cf.conns)
	for c := range plans {
		plans[c] = buildPlan(c, cf, tr)
	}

	what := fmt.Sprintf("%d jobs/conn closed-loop (batch %d)", cf.jobs, cf.batch)
	if tr != nil {
		what = fmt.Sprintf("trace %s (%d jobs)", tr.Name, len(tr.Jobs))
	}
	fmt.Printf("loadgen client: %d conn(s) -> %s, %s\n", cf.conns, addr, what)

	bufs := alloc.NewBufPool()
	results := make([]connResult, cf.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			driveConn(addr, bufs, plans[c], cf.batch, &results[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge the per-connection histograms and counters into one report.
	var (
		merged   stats.Histogram
		jobs     uint64
		statuses [wire.NumStatus]uint64
		failed   int
	)
	for c := range results {
		r := &results[c]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "conn %d: %v\n", c, r.err)
			failed++
		}
		jobs += r.jobs
		for s, n := range r.statuses {
			statuses[s] += n
		}
		merged.Merge(&r.hist)
	}
	fmt.Printf("\nclient: %d jobs over %d conn(s) in %v: %.1f jobs/sec\n",
		jobs, cf.conns, elapsed.Round(time.Millisecond), float64(jobs)/elapsed.Seconds())
	for s, n := range statuses {
		if n > 0 {
			fmt.Printf("  %-14s %d\n", wire.Status(s), n)
		}
	}
	if merged.Count() > 0 {
		dur := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
		fmt.Printf("completion latency: p50 %v  p90 %v  p99 %v  max %v (%d samples)\n",
			dur(merged.Percentile(50)), dur(merged.Percentile(90)), dur(merged.Percentile(99)), dur(merged.Max()), merged.Count())
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// buildPlan assembles connection c's submission schedule: its
// round-robin share of a trace, or a closed-loop record list.
func buildPlan(c int, cf clientFlags, tr *replay.JobTrace) connPlan {
	var p connPlan
	if tr != nil {
		for i, ev := range tr.Jobs {
			if i%cf.conns != c {
				continue
			}
			rec := wire.SubmitRecord{
				Class:             ev.Class,
				TenantID:          ev.Tenant,
				TenantMilliWeight: milliWeight(tr.Weights, ev.Tenant),
				Size:              ev.Size,
				DeadlineNS:        int64(ev.Deadline),
			}
			if ev.App != "" {
				rec.App = []byte(ev.App)
			}
			p.recs = append(p.recs, rec)
			p.arrivals = append(p.arrivals, time.Duration(ev.At))
		}
		return p
	}
	p.recs = make([]wire.SubmitRecord, cf.jobs)
	for k := range p.recs {
		p.recs[k] = wire.SubmitRecord{
			Class:    int(xomp.ClassBatch),
			TenantID: c % cf.tenants,
			Size:     cf.size,
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
