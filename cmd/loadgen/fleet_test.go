package main

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/jobserve"
	"repro/internal/wire"
	"repro/xomp"
)

// TestOpenLoopLatencyCountsFromTheDueTime: an open-loop record's latency
// starts when it was due, not when the generator got round to sending it,
// so neither a stalled server nor a late generator can hide a wait.
func TestOpenLoopLatencyCountsFromTheDueTime(t *testing.T) {
	const (
		jobs = 500
		late = 20 * time.Millisecond
	)
	// drive runs one open-loop connection of no-op records, one frame
	// each, against a one-worker server, and returns the fastest latency.
	// hold, if set, is submitted first and keeps the worker busy.
	drive := func(t *testing.T, due time.Duration, hold func(srv *jobserve.Server)) time.Duration {
		team := xomp.Preset("xgomptb", 1)
		team.Backlog = jobs
		pool := xomp.MustShardedPool(xomp.ShardConfig{Shards: 1, Team: team})
		defer pool.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := jobserve.Serve(ln, jobserve.Config{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if hold != nil {
			if _, err := pool.Submit(func(*xomp.Worker) { hold(srv) }); err != nil {
				t.Fatal(err)
			}
		}
		plan := connPlan{recs: make([]wire.SubmitRecord, jobs), arrivals: make([]time.Duration, jobs)}
		for i := range plan.arrivals {
			plan.arrivals[i] = due
		}
		var out connResult
		driveConn(srv.Addr().String(), alloc.NewBufPool(), plan, 1, &out)
		if out.err != nil || out.statuses[wire.StatusOK] != jobs {
			t.Fatalf("drive: err %v, %d of %d ok", out.err, out.statuses[wire.StatusOK], jobs)
		}
		return time.Duration(out.hist.Percentile(0))
	}

	// Every record is due as the run starts; the worker is held busy for
	// 20 ms from the first frame's arrival, which is later still. All of
	// them were due before the stall and finished after it.
	t.Run("stalled server", func(t *testing.T) {
		min := drive(t, 0, func(srv *jobserve.Server) {
			for srv.Wire().FramesIn == 0 {
				runtime.Gosched()
			}
			time.Sleep(late)
		})
		if min < late {
			t.Fatalf("fastest record reports %v; all were due before a %v stall that outlasted them", min, late)
		}
	})
	// The schedule is 20 ms old when the connection comes up: the server
	// answers in microseconds, and every record still waited 20 ms.
	t.Run("late generator", func(t *testing.T) {
		if min := drive(t, -late, nil); min < late {
			t.Fatalf("fastest record reports %v; all were sent %v after they were due", min, late)
		}
	})
}
