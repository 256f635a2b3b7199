// Repository-level benchmarks: one testing.B entry per table and figure of
// the paper's evaluation. Each benchmark runs the same workload/runtime
// cell the corresponding experiment measures, at test scale so the full
// suite stays tractable; cmd/benchall runs the full-table versions with
// larger inputs and parameter sweeps.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig8 -benchtime=3x
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/bots"
	"repro/internal/core"
	"repro/internal/jobserve"
	"repro/internal/numa"
	"repro/internal/posp"
	"repro/internal/prof"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/simnuma"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/xomp"
)

const benchWorkers = 4

func benchTeam(b *testing.B, preset string) *xomp.Team {
	b.Helper()
	cfg := xomp.Preset(preset, benchWorkers)
	cfg.Topology = numa.Synthetic(benchWorkers, 2)
	return xomp.MustTeam(cfg)
}

// runApp times one BOTS app on one preset inside a b.N loop.
func runApp(b *testing.B, app, preset string) {
	b.Helper()
	w := bots.MustNew(app, bots.ScaleTest)
	tm := benchTeam(b, preset)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunParallel(tm)
	}
	b.StopTimer()
	if err := w.Verify(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig1 reproduces Fig. 1: BOTS on GOMP vs LOMP vs XLOMP.
func BenchmarkFig1(b *testing.B) {
	for _, app := range bots.Names {
		for _, preset := range []string{"gomp", "lomp", "xlomp"} {
			b.Run(app+"/"+preset, func(b *testing.B) { runApp(b, app, preset) })
		}
	}
}

// BenchmarkFig3 reproduces Fig. 3's measurement: Fib and Sort under XGOMP
// with the event timeline enabled, reporting the imbalance ratio.
func BenchmarkFig3(b *testing.B) {
	for _, app := range []string{"fib", "sort"} {
		b.Run(app, func(b *testing.B) {
			cfg := xomp.Preset("xgomp", benchWorkers)
			cfg.Topology = numa.Synthetic(benchWorkers, 2)
			cfg.Profile = true
			tm := xomp.MustTeam(cfg)
			w := bots.MustNew(app, bots.ScaleTest)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RunParallel(tm)
			}
			b.StopTimer()
			b.ReportMetric(tm.Profile().Snapshot().ImbalanceRatio(), "max/mean-tasks")
		})
	}
}

// BenchmarkFig4 reproduces Fig. 4: BOTS across all five runtimes.
func BenchmarkFig4(b *testing.B) {
	for _, app := range bots.Names {
		for _, preset := range []string{"gomp", "xgomp", "xgomptb", "lomp", "xlomp"} {
			b.Run(app+"/"+preset, func(b *testing.B) { runApp(b, app, preset) })
		}
	}
}

// BenchmarkFig5 reproduces Fig. 5: improvement of XGOMP/XGOMPTB over GOMP,
// reported as the improvement metric of a paired measurement.
func BenchmarkFig5(b *testing.B) {
	for _, app := range []string{"fib", "nqueens", "sort"} {
		for _, preset := range []string{"xgomp", "xgomptb"} {
			b.Run(app+"/"+preset, func(b *testing.B) {
				w := bots.MustNew(app, bots.ScaleTest)
				gomp := benchTeam(b, "gomp")
				fast := benchTeam(b, preset)
				var tg, tf time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := time.Now()
					w.RunParallel(gomp)
					tg += time.Since(s)
					s = time.Now()
					w.RunParallel(fast)
					tf += time.Since(s)
				}
				b.StopTimer()
				if tf > 0 {
					b.ReportMetric(tg.Seconds()/tf.Seconds(), "improvement-x")
				}
			})
		}
	}
}

// BenchmarkFig6 reproduces Fig. 6: scaling with team size.
func BenchmarkFig6(b *testing.B) {
	for _, app := range []string{"fib", "sort", "uts"} {
		for _, n := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/%dT", app, n), func(b *testing.B) {
				cfg := xomp.Preset("xgomptb", n)
				cfg.Topology = numa.Synthetic(n, min(n, 2))
				tm := xomp.MustTeam(cfg)
				w := bots.MustNew(app, bots.ScaleTest)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.RunParallel(tm)
				}
			})
		}
	}
}

// dlbTeam builds an xgomptb team with explicit DLB settings.
func dlbTeam(strategy xomp.DLBStrategy, nv, ns, ti int, pl float64) *xomp.Team {
	cfg := xomp.Preset("xgomptb", benchWorkers)
	cfg.Topology = numa.Synthetic(benchWorkers, 2)
	cfg.DLB = xomp.DLBConfig{Strategy: strategy, NVictim: nv, NSteal: ns, TInterval: ti, PLocal: pl}
	return xomp.MustTeam(cfg)
}

// BenchmarkFig7 reproduces Fig. 7: static vs NA-RP vs NA-WS per app (at
// representative settings; cmd/benchall sweeps for the true optimum).
func BenchmarkFig7(b *testing.B) {
	variants := map[string]func() *xomp.Team{
		"static": func() *xomp.Team { return benchTeam(b, "xgomptb") },
		"narp":   func() *xomp.Team { return dlbTeam(xomp.DLBRedirectPush, 8, 16, 100, 1) },
		"naws":   func() *xomp.Team { return dlbTeam(xomp.DLBWorkSteal, 8, 16, 100, 1) },
	}
	for _, app := range bots.Names {
		for name, mk := range variants {
			b.Run(app+"/"+name, func(b *testing.B) {
				tm := mk()
				w := bots.MustNew(app, bots.ScaleTest)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.RunParallel(tm)
				}
			})
		}
	}
}

// BenchmarkFig8 reproduces Fig. 8: PoSp throughput vs batch size on GOMP
// and XGOMPTB, reporting MH/s.
func BenchmarkFig8(b *testing.B) {
	var seed [32]byte
	copy(seed[:], "bench fig8 seed.................")
	for _, preset := range []string{"gomp", "xgomptb"} {
		for _, batch := range []int{1, 64, 1024} {
			b.Run(fmt.Sprintf("%s/batch%d", preset, batch), func(b *testing.B) {
				tm := benchTeam(b, preset)
				var mhs float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p, err := posp.Generate(tm, 12, batch, seed)
					if err != nil {
						b.Fatal(err)
					}
					mhs = p.ThroughputMHS()
				}
				b.ReportMetric(mhs, "MH/s")
			})
		}
	}
}

// synthCell runs one Fig. 9/10 surface cell: imbalanced spin tasks of the
// given size against a DLB config derived from the steal size.
func synthCell(b *testing.B, strategy xomp.DLBStrategy, taskUnits int, steal int) {
	b.Helper()
	top := numa.Synthetic(benchWorkers, 2)
	model := simnuma.NewModel(top, simnuma.Config{LocalNS: 1, RemoteNS: 4})
	cfg := xomp.Preset("xgomptb", benchWorkers)
	cfg.Topology = top
	if strategy != xomp.DLBNone {
		cfg.DLB = xomp.DLBConfig{Strategy: strategy, NVictim: 4, NSteal: steal, TInterval: 100, PLocal: 1}
	}
	tm := xomp.MustTeam(cfg)
	tasks := 1 << 22 / taskUnits
	if tasks > 5000 {
		tasks = 5000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Run(func(w *xomp.Worker) {
			for t := 0; t < tasks; t++ {
				size := taskUnits
				if t%16 == 0 {
					size *= 16
				}
				w.Spawn(func(w *xomp.Worker) {
					model.Access(w.ID(), 0, size/64+1)
					simnuma.Spin(size)
				})
			}
		})
	}
}

// BenchmarkFig9 reproduces Fig. 9 cells: NA-RP over task size × steal size.
func BenchmarkFig9(b *testing.B) {
	for _, size := range []int{100, 10000} {
		for _, steal := range []int{1, 32} {
			b.Run(fmt.Sprintf("task%d/steal%d", size, steal), func(b *testing.B) {
				synthCell(b, xomp.DLBRedirectPush, size, steal)
			})
		}
	}
}

// BenchmarkFig10 reproduces Fig. 10 cells: NA-WS over the same surface.
func BenchmarkFig10(b *testing.B) {
	for _, size := range []int{100, 10000} {
		for _, steal := range []int{1, 32} {
			b.Run(fmt.Sprintf("task%d/steal%d", size, steal), func(b *testing.B) {
				synthCell(b, xomp.DLBWorkSteal, size, steal)
			})
		}
	}
}

// BenchmarkFig11 reproduces Fig. 11: BOTS under the Table-IV guideline
// settings (coarse tasks → NA-RP with large steals; fine → NA-WS small).
func BenchmarkFig11(b *testing.B) {
	guideline := map[string]func() *xomp.Team{
		"fib":       func() *xomp.Team { return dlbTeam(xomp.DLBWorkSteal, 1, 1, 100, 1) },
		"nqueens":   func() *xomp.Team { return dlbTeam(xomp.DLBWorkSteal, 1, 4, 100, 1) },
		"uts":       func() *xomp.Team { return dlbTeam(xomp.DLBWorkSteal, 4, 8, 100, 1) },
		"strassen":  func() *xomp.Team { return dlbTeam(xomp.DLBRedirectPush, 8, 32, 100, 1) },
		"sort":      func() *xomp.Team { return dlbTeam(xomp.DLBRedirectPush, 8, 32, 100, 1) },
		"align":     func() *xomp.Team { return dlbTeam(xomp.DLBRedirectPush, 8, 8, 100, 1) },
		"fft":       func() *xomp.Team { return dlbTeam(xomp.DLBWorkSteal, 8, 32, 100, 1) },
		"floorplan": func() *xomp.Team { return dlbTeam(xomp.DLBWorkSteal, 8, 32, 100, 1) },
		"health":    func() *xomp.Team { return dlbTeam(xomp.DLBWorkSteal, 4, 32, 100, 0.5) },
	}
	for _, app := range bots.Names {
		b.Run(app, func(b *testing.B) {
			tm := guideline[app]()
			w := bots.MustNew(app, bots.ScaleTest)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RunParallel(tm)
			}
		})
	}
}

// BenchmarkTable1 exercises the Table-I sweep corners for one fine- and
// one coarse-grained app so the sweep path itself is benchmarked.
func BenchmarkTable1(b *testing.B) {
	type corner struct {
		nv, ns int
		pl     float64
	}
	corners := []corner{{1, 1, 1}, {1, 32, 0.03}, {8, 1, 1}, {8, 32, 0.03}}
	for _, app := range []string{"fib", "sort"} {
		for _, c := range corners {
			b.Run(fmt.Sprintf("%s/nv%d-ns%d-pl%v", app, c.nv, c.ns, c.pl), func(b *testing.B) {
				tm := dlbTeam(xomp.DLBWorkSteal, c.nv, c.ns, 100, c.pl)
				w := bots.MustNew(app, bots.ScaleTest)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.RunParallel(tm)
				}
			})
		}
	}
}

// BenchmarkTable2 reproduces Table II's measurement: BOTS under each DLB
// strategy with the paper's statistics reported as metrics.
func BenchmarkTable2(b *testing.B) {
	for _, app := range []string{"fib", "uts", "sort"} {
		for name, strat := range map[string]xomp.DLBStrategy{
			"narp": xomp.DLBRedirectPush, "naws": xomp.DLBWorkSteal,
		} {
			b.Run(app+"/"+name, func(b *testing.B) {
				tm := dlbTeam(strat, 8, 16, 100, 1)
				w := bots.MustNew(app, bots.ScaleTest)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.RunParallel(tm)
				}
				b.StopTimer()
				p := tm.Profile()
				per := float64(b.N)
				b.ReportMetric(float64(p.Sum(prof.CntReqSent))/per, "req-sent/op")
				b.ReportMetric(float64(p.Sum(prof.CntReqHandled))/per, "req-handled/op")
				b.ReportMetric(float64(p.Sum(prof.CntTasksStolen))/per, "stolen/op")
				b.ReportMetric(float64(p.Sum(prof.CntTasksSelf))/per, "self/op")
			})
		}
	}
}

// BenchmarkTable3 reproduces Table III's measurement: static balancing
// statistics.
func BenchmarkTable3(b *testing.B) {
	for _, app := range []string{"fib", "uts", "sort"} {
		b.Run(app, func(b *testing.B) {
			tm := benchTeam(b, "xgomptb")
			w := bots.MustNew(app, bots.ScaleTest)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RunParallel(tm)
			}
			b.StopTimer()
			p := tm.Profile()
			per := float64(b.N)
			b.ReportMetric(float64(p.Sum(prof.CntStaticPush))/per, "static-push/op")
			b.ReportMetric(float64(p.Sum(prof.CntImmExec))/per, "imm-exec/op")
			b.ReportMetric(float64(p.Sum(prof.CntTasksRemote))/per, "remote/op")
		})
	}
}

// BenchmarkTable4 reproduces Table IV's guideline cells: the recommended
// strategy per task-size class on the synthetic workload.
func BenchmarkTable4(b *testing.B) {
	cells := []struct {
		name  string
		strat xomp.DLBStrategy
		size  int
		steal int
	}{
		{"tiny-ws-small-steal", xomp.DLBWorkSteal, 10, 1},
		{"small-ws", xomp.DLBWorkSteal, 100, 4},
		{"mid-ws", xomp.DLBWorkSteal, 1000, 16},
		{"large-rp-big-steal", xomp.DLBRedirectPush, 10000, 32},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			synthCell(b, c.strat, c.size, c.steal)
		})
	}
}

// BenchmarkPoolThroughput measures the job-server layer: jobs/sec through
// one shared serving team as a function of preset and concurrent submitter
// count. The bots rows submit mixed BOTS task trees (fib, sort, nqueens
// cycling), so the benchmark exercises admission, adoption, cross-job
// interleaving in the shared substrate, and per-job quiescence detection —
// the whole Submit/Wait path rather than a single region. The cheap rows
// submit empty job bodies, so per-job cost is pure submission-path
// overhead (admission edge, intake queue, adoption, completion, Wait):
// the hot path the fast-path submission work optimizes. All rows report
// allocs/op and B/op (submitter-side); the cheap rows must stay at 0.
func BenchmarkPoolThroughput(b *testing.B) {
	mix := []string{"fib", "sort", "nqueens"}
	for _, preset := range []string{"gomp", "lomp", "xgomptb", "xgomptb+naws"} {
		for _, submitters := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/sub%d", preset, submitters), func(b *testing.B) {
				cfg := xomp.Preset(preset, benchWorkers)
				cfg.Topology = numa.Synthetic(benchWorkers, 2)
				pool := xomp.MustPool(cfg)
				// One app instance per submitter and mix entry, built before
				// the clock starts: a submitter has at most one job in
				// flight and RunTask re-initializes per-run state, so
				// instances are safely reused across iterations.
				apps := make([][]bots.Benchmark, submitters)
				for s := range apps {
					apps[s] = make([]bots.Benchmark, len(mix))
					for m, name := range mix {
						apps[s][m] = bots.MustNew(name, bots.ScaleTest)
					}
				}
				var next atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				var wg sync.WaitGroup
				for s := 0; s < submitters; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						for {
							i := int(next.Add(1)) - 1
							if i >= b.N {
								return
							}
							app := apps[s][i%len(mix)]
							j, err := pool.Submit(app.RunTask)
							if err != nil {
								b.Error(err)
								return
							}
							if err := j.Wait(); err != nil {
								b.Error(err)
								return
							}
						}
					}(s)
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				if err := pool.Close(); err != nil {
					b.Fatal(err)
				}
				if elapsed > 0 {
					b.ReportMetric(float64(b.N)/elapsed.Seconds(), "jobs/sec")
				}
			})
		}
	}
	for _, preset := range []string{"lomp", "xgomptb"} {
		for _, submitters := range []int{1, 4} {
			b.Run(fmt.Sprintf("cheap-%s/sub%d", preset, submitters), func(b *testing.B) {
				benchCheapPool(b, preset, submitters)
			})
		}
		b.Run(fmt.Sprintf("cheap-%s/batch64", preset), func(b *testing.B) {
			benchCheapBatch(b, preset, 64, cheapBacklog)
		})
		// The same batch on the default backlog (4×Workers = 16): three
		// quarters of it overflows the ring and enters in runs, the path
		// cheapBacklog keeps the other rows off.
		b.Run(fmt.Sprintf("cheap-%s/batch64-overflow", preset), func(b *testing.B) {
			benchCheapBatch(b, preset, 64, 0)
		})
	}
}

// benchCheapPool is the closed-loop cheap-job cell: `submitters`
// goroutines submit empty jobs back to back and wait for each.
func benchCheapPool(b *testing.B, preset string, submitters int) {
	b.Helper()
	pool := cheapPool(b, preset, cheapBacklog)
	noop := func(*xomp.Worker) {}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				j, err := pool.Submit(noop)
				if err != nil {
					b.Error(err)
					return
				}
				if err := j.Wait(); err != nil {
					b.Error(err)
					return
				}
				j.Release()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	if err := pool.Close(); err != nil {
		b.Fatal(err)
	}
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "jobs/sec")
	}
}

// benchCheapBatch is the amortized-admission cell: one submitter admits
// empty jobs in batches of `size` through SubmitBatchCtx, reusing the
// items slice across rounds, then waits for and releases every handle.
// Compare against the cheap-*/sub1 row: the delta is what one admission
// decision per batch buys over one per job.
func benchCheapBatch(b *testing.B, preset string, size, backlog int) {
	b.Helper()
	pool := cheapPool(b, preset, backlog)
	noop := func(*xomp.Worker) {}
	items := make([]xomp.BatchItem, size)
	for i := range items {
		items[i] = xomp.BatchItem{Fn: noop, Opts: xomp.SubmitOpts{Priority: xomp.ClassBatch}}
	}
	results := make([]xomp.BatchResult, size)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for done := 0; done < b.N; {
		n := size
		if rem := b.N - done; rem < n {
			n = rem
		}
		res := results[:n]
		if err := pool.SubmitBatchCtx(ctx, items[:n], res); err != nil {
			b.Fatal(err)
		}
		for i := range res {
			if res[i].Err != nil {
				b.Fatal(res[i].Err)
			}
			if err := res[i].Job.Wait(); err != nil {
				b.Fatal(err)
			}
			res[i].Job.Release()
		}
		done += n
	}
	elapsed := time.Since(start)
	b.StopTimer()
	if err := pool.Close(); err != nil {
		b.Fatal(err)
	}
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "jobs/sec")
	}
}

// cheapBacklog is the deep backlog the cheap-job rows share, so the cells
// measure the submit path, not a 4×Workers backpressure bound.
const cheapBacklog = 256

// cheapPool builds the pool of a cheap-job row (backlog 0: the default).
func cheapPool(b *testing.B, preset string, backlog int) *xomp.ShardedPool {
	b.Helper()
	cfg := xomp.Preset(preset, benchWorkers)
	cfg.Topology = numa.Synthetic(benchWorkers, 2)
	cfg.Backlog = backlog
	return xomp.MustPool(cfg)
}

// BenchmarkBotsMixInProcess is svcbench's bots-mix workload without the
// socket, for quick A/B runs of the task runtime: one 2-worker
// xgomptb+naws pool at GOMAXPROCS 1 (how svcbench places the server), fed
// by 2 closed-loop submitters that each send frames of 4 jobs cycling
// through fib, sort and nqueens at test scale and wait for the whole frame.
// Each job's body comes from the app's instance pool (bots.Get), as the
// server's does. One op is one job, so allocs/op and B/op are per job;
// gc/op counts GC cycles per job.
func BenchmarkBotsMixInProcess(b *testing.B) {
	const submitters, frame = 2, 4
	mix := []string{"fib", "sort", "nqueens"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pool := xomp.MustPool(xomp.Preset("xgomptb+naws", 2))
	var next atomic.Int64
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			items := make([]xomp.BatchItem, frame)
			results := make([]xomp.BatchResult, frame)
			for {
				first := int(next.Add(frame)) - frame
				if first >= b.N {
					return
				}
				n := min(frame, b.N-first)
				for i := range items[:n] {
					items[i].Fn = bots.Get(mix[(first+i)%len(mix)], bots.ScaleTest).Body
				}
				res := results[:n]
				if err := pool.SubmitBatchCtx(context.Background(), items[:n], res); err != nil {
					b.Error(err)
					return
				}
				for i := range res {
					if err := res[i].Err; err != nil {
						b.Error(err)
						return
					}
					if err := res[i].Job.Wait(); err != nil {
						b.Error(err)
						return
					}
					res[i].Job.Release()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	if err := pool.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "jobs/sec")
	b.ReportMetric(float64(gc1.NumGC-gc0.NumGC)/float64(b.N), "gc/op")
}

// BenchmarkShardedPoolThroughput measures the two-level pool: jobs/sec by
// shard count under uniform (dispatcher-placed) and skewed (three quarters
// of submissions pinned to shard 0) traffic, on the same mixed BOTS
// workload as BenchmarkPoolThroughput. Total workers stay constant across
// shard counts, so shards1 is the sharding overhead against the
// single-team baseline and the skewed cases show how far the second-level
// balancer recovers from adversarial placement.
func BenchmarkShardedPoolThroughput(b *testing.B) {
	mix := []string{"fib", "sort", "nqueens"}
	const submitters = 4
	for _, skewed := range []bool{false, true} {
		scenario := "uniform"
		if skewed {
			scenario = "skewed"
		}
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/shards%d", scenario, shards), func(b *testing.B) {
				cfg := xomp.ShardConfig{
					Shards: shards,
					Team:   xomp.Preset("xgomptb+naws", benchWorkers/shards),
				}
				pool := xomp.MustShardedPool(cfg)
				apps := make([][]bots.Benchmark, submitters)
				for s := range apps {
					apps[s] = make([]bots.Benchmark, len(mix))
					for m, name := range mix {
						apps[s][m] = bots.MustNew(name, bots.ScaleTest)
					}
				}
				var next atomic.Int64
				b.ResetTimer()
				start := time.Now()
				var wg sync.WaitGroup
				for s := 0; s < submitters; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						for {
							i := int(next.Add(1)) - 1
							if i >= b.N {
								return
							}
							app := apps[s][i%len(mix)]
							var j *xomp.Job
							var err error
							if skewed && i%4 != 0 {
								j, err = pool.SubmitTo(0, app.RunTask)
							} else {
								j, err = pool.Submit(app.RunTask)
							}
							if err != nil {
								b.Error(err)
								return
							}
							if err := j.Wait(); err != nil {
								b.Error(err)
								return
							}
						}
					}(s)
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				var migrated uint64
				for _, st := range pool.Stats() {
					migrated += st.MigratedIn
				}
				if err := pool.Close(); err != nil {
					b.Fatal(err)
				}
				if elapsed > 0 {
					b.ReportMetric(float64(b.N)/elapsed.Seconds(), "jobs/sec")
				}
				b.ReportMetric(float64(migrated)/float64(b.N), "migrated/op")
			})
		}
	}
}

// BenchmarkAdmissionSaturation drives a deliberately undersized pool far
// past its capacity with mixed-class, deadline-carrying traffic and
// compares admission policies: "block" (pure backpressure — a
// full-queue submission waits until its 20ms deadline cuts it off, so
// the wait is paid and then wasted) against "shed" (deadline-aware
// shedding — hopeless submissions are dropped at the door immediately,
// so no time is spent waiting on work that cannot make its deadline and
// the capacity goes to work that still can). Interactive
// jobs are the minority class whose p99 admission latency the shed
// policy must keep bounded while the background flood is shed; the
// reported metrics are completed jobs/sec, the interactive-class p99
// admission latency in milliseconds, and the background shed fraction.
func BenchmarkAdmissionSaturation(b *testing.B) {
	const (
		submitters = 8
		saturWork  = 120_000 // simnuma spin units per task: ~ms-scale jobs
	)
	for _, mode := range []string{"block", "shed"} {
		b.Run(mode, func(b *testing.B) {
			cfg := xomp.Preset("xgomptb", 2)
			cfg.Topology = numa.Synthetic(2, 1)
			cfg.Backlog = 2
			if mode == "shed" {
				cfg.Admit = xomp.DeadlineShed{}
			}
			pool := xomp.MustPool(cfg)
			body := func(w *xomp.Worker) {
				for i := 0; i < 4; i++ {
					w.Spawn(func(*xomp.Worker) { simnuma.Spin(saturWork) })
				}
				w.TaskWait()
			}
			// Warm the job-time estimate so the shed predictor is live
			// from the first measured submission.
			if j, err := pool.Submit(body); err != nil {
				b.Fatal(err)
			} else if err := j.Wait(); err != nil {
				b.Fatal(err)
			}
			var (
				next      atomic.Int64
				completed atomic.Int64
				bgShed    atomic.Int64
				bgTotal   atomic.Int64
				latMu     sync.Mutex
				intLat    stats.Sample
			)
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						// 1-in-4 interactive, the rest background; every
						// submission carries a deadline the saturated pool
						// cannot meet for deep backlogs.
						class := xomp.ClassBackground
						if i%4 == 0 {
							class = xomp.ClassInteractive
						}
						opts := xomp.SubmitOpts{
							Priority: class,
							Deadline: time.Now().Add(20 * time.Millisecond),
						}
						if class == xomp.ClassBackground {
							bgTotal.Add(1)
						}
						t0 := time.Now()
						j, err := pool.SubmitCtx(context.Background(), body, opts)
						admit := time.Since(t0)
						switch {
						case err == nil:
							if class == xomp.ClassInteractive {
								latMu.Lock()
								intLat.AddDuration(admit)
								latMu.Unlock()
							}
							if err := j.Wait(); err != nil {
								b.Error(err)
								return
							}
							completed.Add(1)
						case errors.Is(err, xomp.ErrShed),
							errors.Is(err, xomp.ErrBacklogFull),
							errors.Is(err, xomp.ErrDeadlineExceeded):
							if class == xomp.ClassBackground {
								bgShed.Add(1)
							}
						default:
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			if err := pool.Close(); err != nil {
				b.Fatal(err)
			}
			if elapsed > 0 {
				b.ReportMetric(float64(completed.Load())/elapsed.Seconds(), "jobs/sec")
			}
			if intLat.N() > 0 {
				b.ReportMetric(intLat.Percentile(99)*1e3, "int-p99-admit-ms")
			}
			if bgTotal.Load() > 0 {
				b.ReportMetric(float64(bgShed.Load())/float64(bgTotal.Load()), "bg-shed-frac")
			}
		})
	}
}

// BenchmarkScenarioReplay measures trace-driven throughput: each
// iteration replays one corpus scenario end to end (open-loop timed
// arrivals, time-compressed) through one admission policy, reporting
// completed jobs per wall second and the per-op refusal count
// (rejected + shed + expired). Unlike the closed-loop pool benchmarks,
// the offered load here is the trace's, not the pool's own drain rate,
// so policy changes shift the refusal/latency split rather than the
// iteration count.
func BenchmarkScenarioReplay(b *testing.B) {
	cases := []struct {
		scenario string
		speed    float64
	}{
		// Speeds compress each trace's span to tens of milliseconds per
		// op; flash-crowd stays closer to recorded pace because its
		// deadlines (which compress with Speed) are the point.
		{"steady", 4},
		{"flash-crowd", 2},
		{"zipf", 4},
	}
	for _, c := range cases {
		tr, err := scenario.Generate(c.scenario, scenario.GoldenSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"block", "shed"} {
			b.Run(c.scenario+"/"+mode, func(b *testing.B) {
				cfg := xomp.Preset("xgomptb", benchWorkers)
				cfg.Topology = numa.Synthetic(benchWorkers, 2)
				cfg.Backlog = 16
				if mode == "shed" {
					cfg.Admit = xomp.DeadlineShed{}
				}
				var (
					completed, refused uint64
					wall               time.Duration
				)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := replay.ReplayJobs(tr, replay.Options{Team: cfg, Speed: c.speed})
					if err != nil {
						b.Fatal(err)
					}
					completed += res.Completed
					wall += res.Wall
					for cl := range res.PerClass {
						pc := res.PerClass[cl]
						refused += pc.Rejected + pc.Shed + pc.Expired
					}
				}
				b.StopTimer()
				if wall > 0 {
					b.ReportMetric(float64(completed)/wall.Seconds(), "jobs/sec")
				}
				b.ReportMetric(float64(refused)/float64(b.N), "refused/op")
			})
		}
	}
}

// BenchmarkTenantFairness measures the fifth policy level on the
// tenant-storm trace: each iteration replays the noisy-neighbor workload
// through one admission policy and reports the victim tenants' outcome —
// the spread of per-victim completion fractions (max-min completed/
// submitted, the fairness gap), the worst victim p99 admission latency,
// and the WFQ engagement count per op. A wfq run whose fairness bounds never
// engaged is a broken benchmark, not a fast one, and fails loudly (CI's
// bench-smoke 1x pass runs it).
func BenchmarkTenantFairness(b *testing.B) {
	tr, err := scenario.Generate("tenant-storm", scenario.GoldenSeed)
	if err != nil {
		b.Fatal(err)
	}
	victims := []int{0, 1, 2, 3}
	for _, mode := range []string{"block", "wfq"} {
		b.Run(mode, func(b *testing.B) {
			var (
				engaged    uint64
				wall       time.Duration
				completed  uint64
				spreadSum  float64
				worstAdmit time.Duration
			)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := xomp.Preset("xgomptb", 2)
				cfg.Backlog = 16
				var wfq *xomp.WFQAdmit
				if mode == "wfq" {
					// Fresh policy per iteration: the plane's state is
					// part of what is being measured, not carried over.
					wfq = &xomp.WFQAdmit{MaxShare: 0.75}
					cfg.Admit = wfq
				}
				res, err := replay.ReplayJobs(tr, replay.Options{Team: cfg})
				if err != nil {
					b.Fatal(err)
				}
				wall += res.Wall
				completed += res.Completed
				// Spread of per-victim completion fractions: demand-
				// normalized, so it measures unfairness between victims
				// rather than their different submission counts.
				min, max := math.Inf(1), math.Inf(-1)
				for _, id := range victims {
					v := res.PerTenant[id]
					frac := float64(v.Completed) / float64(v.Submitted)
					if frac < min {
						min = frac
					}
					if frac > max {
						max = frac
					}
					if v.AdmitP99 > worstAdmit {
						worstAdmit = v.AdmitP99
					}
				}
				spreadSum += max - min
				if wfq != nil {
					engaged += wfq.Engaged()
				}
			}
			b.StopTimer()
			if mode == "wfq" && engaged == 0 {
				b.Fatal("WFQ fairness bounds never engaged on the tenant-storm trace")
			}
			if wall > 0 {
				b.ReportMetric(float64(completed)/wall.Seconds(), "jobs/sec")
			}
			b.ReportMetric(spreadSum/float64(b.N), "victim-spread-frac")
			b.ReportMetric(float64(worstAdmit.Nanoseconds())/1e6, "victim-p99-admit-ms")
			b.ReportMetric(float64(engaged)/float64(b.N), "wfq-engaged/op")
		})
	}
}

// BenchmarkExperimentHarness times the cheap harness entries end to end so
// regressions in the table generators themselves are visible.
func BenchmarkExperimentHarness(b *testing.B) {
	e, _ := bench.ByID("fig8")
	o := bench.Options{Workers: benchWorkers, Zones: 2, Scale: bots.ScaleTest, Reps: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(o, discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Verify the core.Team type used here is the same type the public facade
// exposes (compile-time API stability check).
var _ *core.Team = (*xomp.Team)(nil)

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkWireThroughput measures the network serving edge end to end
// over loopback TCP: a jobserve server wrapping a one-shard pool of
// no-op jobs, one closed-loop client connection (the loadgen client
// shape: submit one batch, drain its results, repeat), and the submit
// batch size as the only variable. Each op is one job. batch-1 is the
// RPC ping-pong — every job pays a full wire frame, a write syscall, a
// single-job admission section, and a loopback round trip. batch-64
// amortizes all four across 64 jobs: one frame and one admission
// section admit the whole batch, and 64 jobs ride each round trip. The
// jobs/sec ratio between the cells is the value of batched framing
// (the codec's own zero-alloc steady state is asserted by
// TestCodecZeroAlloc and measured by BenchmarkWireCodec below).
func BenchmarkWireThroughput(b *testing.B) {
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			pool := xomp.MustShardedPool(xomp.ShardConfig{
				Shards: 1,
				Team:   xomp.Preset("xgomptb", benchWorkers),
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv, err := jobserve.Serve(ln, jobserve.Config{Pool: pool})
			if err != nil {
				b.Fatal(err)
			}
			cl, err := jobserve.Dial(srv.Addr().String(), alloc.NewBufPool())
			if err != nil {
				b.Fatal(err)
			}
			recs := make([]wire.SubmitRecord, batch) // zero record = no-op body
			b.ResetTimer()
			start := time.Now()
			for sent := 0; sent < b.N; {
				n := min(batch, b.N-sent)
				if _, err := cl.Submit(recs[:n]); err != nil {
					b.Fatal(err)
				}
				if err := cl.Flush(); err != nil {
					b.Fatal(err)
				}
				for got := 0; got < n; {
					rs, err := cl.Recv()
					if err != nil {
						b.Fatal(err)
					}
					got += len(rs)
				}
				sent += n
			}
			elapsed := time.Since(start)
			b.StopTimer()
			cl.Close()
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
			if err := pool.Close(); err != nil {
				b.Fatal(err)
			}
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "jobs/sec")
			}
		})
	}
}

// BenchmarkWireCodec measures the codec alone — encode one 64-record
// submit batch, flush it into a loopback buffer, decode it back — with
// -benchmem reporting the allocation story: at steady state both sides
// run entirely on recycled buffers, so allocs/op must be 0.
func BenchmarkWireCodec(b *testing.B) {
	var loop wireLoop
	bufs := alloc.NewBufPool()
	enc := wire.NewEncoder(&loop, bufs)
	dec := wire.NewDecoder(&loop, bufs)
	recs := make([]wire.SubmitRecord, 64)
	for i := range recs {
		recs[i] = wire.SubmitRecord{Class: i % 3, TenantID: i % 4, Size: i}
	}
	// Warm the recycled buffers so b.N measures the steady state.
	for i := 0; i < 4; i++ {
		if err := enc.SubmitBatch(recs); err != nil {
			b.Fatal(err)
		}
		if _, err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Next(); err != nil {
			b.Fatal(err)
		}
		dec.Submits()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.SubmitBatch(recs); err != nil {
			b.Fatal(err)
		}
		if _, err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Next(); err != nil {
			b.Fatal(err)
		}
		if got := len(dec.Submits()); got != len(recs) {
			b.Fatalf("decoded %d records, want %d", got, len(recs))
		}
	}
}

// wireLoop is an in-memory pipe: Flush appends, the decoder consumes.
// The backing array is reused once drained, so the loop itself never
// allocates at steady state.
type wireLoop struct {
	buf []byte
	off int
}

func (l *wireLoop) Write(p []byte) (int, error) {
	if l.off == len(l.buf) {
		l.buf, l.off = l.buf[:0], 0
	}
	l.buf = append(l.buf, p...)
	return len(p), nil
}

func (l *wireLoop) Read(p []byte) (int, error) {
	if l.off == len(l.buf) {
		return 0, io.EOF
	}
	n := copy(p, l.buf[l.off:])
	l.off += n
	return n, nil
}
