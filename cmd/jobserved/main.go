// Command jobserved is the network job service: a TCP edge over the
// NUMA-sharded balanced pool (xomp.ShardedPool) speaking the
// internal/wire framing protocol. Each connection gets a reader/writer
// goroutine pair — the reader decodes submit batches straight into
// SubmitBatchCtx so one syscall's worth of jobs pays one admission
// section, the writer streams per-job outcome records back with
// coalesced writes. Admission refusals (backlog-full, shed, expired)
// travel as per-job status codes, not connection errors.
//
// The pool flags (preset, workers, shards, backlog, admission policy,
// BOTS scale) come from internal/poolflags. -window bounds each connection's
// admitted-but-unreported jobs (its backpressure knob); -report prints
// the wire traffic counters, the server-side stage clock and the edge
// poller's counters at that period. The server runs until
// SIGINT/SIGTERM, then prints a final traffic and per-shard report,
// followed — once the pool has closed and the workers' own counters may
// be read — by the stage clock, the edge poller's counters (polls, hits,
// sweeps, kicks, parks, heat) and the idle-policy counters (polls, parks,
// bell wakes).
//
// Usage:
//
//	jobserved -addr 127.0.0.1:7077 -workers 8 -shards 2
//	jobserved -workers 4 -backlog 64 -admit shed
//
// Drive it with "loadgen -mode client" (or a whole fleet; see
// cmd/README.md).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobserve"
	"repro/internal/poolflags"
	"repro/internal/prof"
	"repro/xomp"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:7077", "listen address")
		pf     = poolflags.Register(flag.CommandLine)
		window = flag.Int("window", 0, "per-connection in-flight job bound (0 = default)")
		report = flag.Duration("report", 0, "print wire counters every period (0 = only at exit)")
	)
	flag.Parse()

	scfg, scale, err := pf.Config()
	if err != nil {
		fatal(err)
	}
	pool, err := xomp.NewShardedPool(scfg)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv, err := jobserve.Serve(ln, jobserve.Config{Pool: pool, Scale: scale, Window: *window})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("jobserved: serving on %s (%s, %d shards x %d workers, admit %s)\n",
		srv.Addr(), pf.Runtime, scfg.Shards, scfg.Team.Workers, pf.Admit)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *report > 0 {
		tick := time.NewTicker(*report)
		defer tick.Stop()
	loop:
		for {
			select {
			case <-tick.C:
				printWire(srv)
				printStages(srv)
				printEdge(srv)
			case <-stop:
				break loop
			}
		}
	} else {
		<-stop
	}

	fmt.Println("jobserved: shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "jobserved: listener close:", err)
	}
	printWire(srv)
	for _, st := range pool.Stats() {
		fmt.Printf("  shard %d: %d workers, %d jobs completed, migrated in %d / out %d\n",
			st.Shard, st.Workers, st.JobsCompleted, st.MigratedIn, st.MigratedOut)
	}
	if err := pool.Close(); err != nil {
		fatal(err)
	}
	// New lines go after everything svcbench's regexps read. The idle
	// counters are per-thread and owner-written, so they wait for Close.
	printStages(srv)
	printEdge(srv)
	printIdle(pool)
}

// printWire renders one traffic-counter snapshot.
func printWire(srv *jobserve.Server) {
	ws := srv.Wire()
	fmt.Printf("wire: conns %d open / %d closed, frames %d in / %d out, bytes %d in / %d out, jobs %d in, results %d out (%d refused)\n",
		ws.ConnsOpened, ws.ConnsClosed, ws.FramesIn, ws.FramesOut,
		ws.BytesIn, ws.BytesOut, ws.JobsIn, ws.ResultsOut, ws.Refused)
}

// printStages renders the server-side stage clock: where a frame's time
// went between the reader's decode and the writer's flush.
func printStages(srv *jobserve.Server) {
	st := srv.Stages()
	sep := "stages:"
	for i := range st {
		h := &st[i]
		fmt.Printf("%s %s p50 %.1f / p99 %.1f us (%d)", sep, prof.WireStage(i),
			float64(h.Percentile(50))/1e3, float64(h.Percentile(99))/1e3, h.Count())
		sep = ","
	}
	fmt.Println()
}

// printEdge renders the edge poller's counters and the heat signal that
// gates it (all zero where the server has no poller).
func printEdge(srv *jobserve.Server) {
	ws := srv.Wire()
	fmt.Printf("edge: %d polls (%d hits), %d sweeps, %d kicks, %d parks, heat %.1f us\n",
		ws.EdgePolls, ws.EdgePollHits, ws.EdgeSweeps, ws.EdgeKicks, ws.EdgeParks, float64(ws.EdgeHeatNS)/1e3)
}

// printIdle renders the idle-policy counters summed over every shard's
// workers. Call it only after the pool has closed.
func printIdle(pool *xomp.ShardedPool) {
	sum := func(c prof.Counter) (n uint64) {
		for s := 0; s < pool.Shards(); s++ {
			n += pool.Team(s).Profile().Sum(c)
		}
		return n
	}
	fmt.Printf("idle: %d polls, %d parks, %d bell wakes\n",
		sum(prof.CntIdlePolls), sum(prof.CntIdleParks), sum(prof.CntBellWakes))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jobserved:", err)
	os.Exit(1)
}
