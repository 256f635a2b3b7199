package main

import (
	"bytes"
	"runtime"
	"slices"
	"time"

	"repro/internal/alloc"
	"repro/internal/bots"
	"repro/internal/bqueue"
	"repro/internal/intake"
	"repro/internal/prof"
	"repro/internal/wire"
	"repro/internal/xqueue"
	"repro/xomp"
)

// Probes time the layers' public functions directly, one layer at a time,
// so a change to one layer has a number that moves before any end-to-end
// metric does. Each runs for about d. In-process completion goes through
// Job.Subscribe + Release, the protocol jobserve uses — never Wait +
// Release, which is the open frame-recycle race.

// nsPerOp calls op in rounds of batch until d has passed and returns the
// mean ns of one op.
func nsPerOp(d time.Duration, batch int, op func()) float64 {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < d {
		for i := 0; i < batch; i++ {
			op()
		}
		n += batch
	}
	return float64(time.Since(t0)) / float64(n)
}

type probeItem struct{ _ [64]byte }

func noop(*xomp.Worker) {}

// runProbes returns every probe metric by name.
func runProbes(d time.Duration) map[string]float64 {
	m := make(map[string]float64)

	// wire: one 64-record frame encoded, flushed into a buffer and decoded.
	bufs := alloc.NewBufPool()
	var pipe bytes.Buffer
	enc, dec := wire.NewEncoder(&pipe, bufs), wire.NewDecoder(&pipe, bufs)
	submits := make([]wire.SubmitRecord, 64)
	for i := range submits {
		submits[i] = wire.SubmitRecord{Class: i % 3, TenantID: 1 + i%4, Size: 50_000}
	}
	results := make([]wire.ResultRecord, 64)
	for i := range results {
		results[i] = wire.ResultRecord{Seq: uint64(1e6 + i), QueueNS: 40_000, RunNS: 150_000}
	}
	// The codec errors below can only come from malformed records or a
	// failing writer; these records are well-formed and the buffer cannot
	// fail, so a non-nil error would be a codec bug and the probe panics.
	m["wire.codec_ns_per_rec"] = nsPerOp(d, 16, func() {
		must(enc.SubmitBatch(submits))
		_, err := enc.Flush()
		must(err)
		_, err = dec.Next()
		must(err)
	}) / 64
	m["wire.result_codec_ns_per_rec"] = nsPerOp(d, 16, func() {
		must(enc.Results(results))
		_, err := enc.Flush()
		must(err)
		_, err = dec.Next()
		must(err)
	}) / 64
	enc.Close()
	dec.Close()

	// intake: the admission ring, one item and 64 at a time, and the bell.
	ring := intake.New[*probeItem](1024)
	item := &probeItem{}
	m["intake.ring_pair_ns"] = nsPerOp(d, 1024, func() {
		ring.TryEnqueue(item)
		ring.TryDequeue()
	})
	items := make([]*probeItem, 64)
	for i := range items {
		items[i] = item
	}
	m["intake.ring_batch64_ns_per_item"] = nsPerOp(d, 16, func() {
		ring.EnqueueBatch(items)
		for range items {
			ring.TryDequeue()
		}
	}) / 64
	m["intake.bell_wake_ns"] = bellWakeNS(d)

	// The task queues and the pools under the submit path.
	xq := xqueue.New[probeItem](2, 256)
	m["xqueue.push_pop_ns"] = nsPerOp(d, 1024, func() {
		if target, ok := xq.Push(0, item); ok {
			xq.Pop(target)
		}
	})
	bq := bqueue.New[probeItem](256)
	m["bqueue.enq_deq_ns"] = nsPerOp(d, 1024, func() {
		bq.Enqueue(item)
		bq.Dequeue()
	})
	frames := alloc.NewMultiLevel[probeItem](2)
	frames.PutShared(0, item)
	m["alloc.frame_get_put_ns"] = nsPerOp(d, 1024, func() { frames.PutShared(0, frames.GetShared(0)) })
	m["alloc.buf_get_put_ns"] = nsPerOp(d, 1024, func() { bufs.Put(bufs.Get(4096)) })

	poolProbes(d, m)
	regionProbes(d, m)
	return m
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// bellWakeNS is the median time from Bell.Ring to the sleeper running.
func bellWakeNS(d time.Duration) float64 {
	bell := intake.NewBell(1)
	asleep := make(chan struct{})
	woke := make(chan int64)
	stop := make(chan struct{})
	go func() {
		for {
			bell.Sleep(0)
			select {
			case asleep <- struct{}{}:
			case <-stop:
				return
			}
			<-bell.Chan(0)
			t := time.Now().UnixNano()
			bell.Cancel(0)
			woke <- t
		}
	}()
	var ns []int64
	for t0 := time.Now(); time.Since(t0) < d; {
		<-asleep
		time.Sleep(50 * time.Microsecond) // let the sleeper block on its token channel
		rung := time.Now().UnixNano()
		bell.Ring()
		ns = append(ns, <-woke-rung)
	}
	close(stop)
	slices.Sort(ns)
	return quantile(ns, 0.50)
}

// poolProbes is the in-process twin of the rpc-noop and pipe-noop-b64
// workloads, on the pool those servers run: what is left of the wire
// numbers after subtracting these is the edge.
func poolProbes(d time.Duration, m map[string]float64) {
	pool := xomp.MustPool(xomp.Preset("xgomptb", 2))
	defer pool.Close() // nothing is in flight when the probes return
	done := make(chan *xomp.Job, 64)

	var call time.Duration
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < 64; i++ {
			s := time.Now()
			j, err := pool.Submit(noop)
			call += time.Since(s)
			must(err) // a serving, open pool refuses nothing under blocking admission
			j.Subscribe(done)
			(<-done).Release()
		}
		n += 64
	}
	m["xomp.submit_call_ns"] = float64(call) / float64(n)
	m["xomp.submit_to_done_ns"] = float64(time.Since(t0)) / float64(n)

	fns := make([]xomp.TaskFunc, 64)
	for i := range fns {
		fns[i] = noop
	}
	var admit time.Duration
	n = 0
	t0 = time.Now()
	for time.Since(t0) < d {
		s := time.Now()
		res, err := pool.SubmitBatch(fns)
		admit += time.Since(s)
		must(err)
		for i := range res {
			must(res[i].Err)
			res[i].Job.Subscribe(done)
		}
		for range res {
			(<-done).Release()
		}
		n += len(fns)
	}
	m["xomp.batch64_admit_ns_per_job"] = float64(admit) / float64(n)
	m["xomp.batch64_done_ns_per_job"] = float64(time.Since(t0)) / float64(n)
}

// regionProbes are the paper's own numbers: task throughput of a
// region-mode fib, the cost of one spawn, and an empty region (fork plus
// tree barrier).
func regionProbes(d time.Duration, m map[string]float64) {
	tm := xomp.MustTeam(xomp.Preset("xgomptb", runtime.NumCPU()))
	m["core.region_ns"] = nsPerOp(d, 16, func() { tm.Run(noop) })

	const spawns = 4096
	m["core.spawn_ns_per_task"] = nsPerOp(d, 1, func() {
		tm.Run(func(w *xomp.Worker) {
			for i := 0; i < spawns; i++ {
				w.Spawn(noop)
			}
			w.TaskWait()
		})
	}) / spawns

	fib := bots.NewFib(bots.ScaleTest)
	created := tm.Profile().Sum(prof.CntTasksCreated)
	t0 := time.Now()
	for time.Since(t0) < d {
		fib.RunParallel(tm)
	}
	elapsed := time.Since(t0)
	m["core.tasks_per_s"] = float64(tm.Profile().Sum(prof.CntTasksCreated)-created) / elapsed.Seconds()
}
