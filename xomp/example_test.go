package xomp_test

import (
	"fmt"
	"time"

	"repro/xomp"
)

// The basic pattern: a team, a region, recursive tasks, taskwait.
func Example() {
	team := xomp.MustTeam(xomp.Preset("xgomptb", 4))
	var fib func(w *xomp.Worker, n int) int
	fib = func(w *xomp.Worker, n int) int {
		if n < 2 {
			return n
		}
		var a int
		w.Spawn(func(w *xomp.Worker) { a = fib(w, n-1) })
		b := fib(w, n-2)
		w.TaskWait()
		return a + b
	}
	var result int
	team.Run(func(w *xomp.Worker) { result = fib(w, 20) })
	fmt.Println(result)
	// Output: 6765
}

// fibCall is a call task's body: its argument and its result travel in task
// frames, so spawning it allocates nothing while the spawner's frame has a
// free result slot (nine per frame).
func fibCall(w *xomp.Worker, t *xomp.Task) { t.Return(callFib(w, t.Arg(0))) }

func callFib(w *xomp.Worker, n uint64) uint64 {
	if n < 2 {
		return n
	}
	a := w.SpawnCall(fibCall, n-1, 0, 0)
	b := callFib(w, n-2)
	w.TaskWait()
	return *a + b
}

// The same fib without closures: SpawnCall passes up to three argument
// words and returns the word the child's Return fills, final after
// TaskWait.
func ExampleWorker_SpawnCall() {
	team := xomp.MustTeam(xomp.Preset("xgomptb", 4))
	var result uint64
	team.Run(func(w *xomp.Worker) { result = callFib(w, 20) })
	fmt.Println(result)
	// Output: 6765
}

// TaskGroup joins a whole subtree of tasks, not just direct children.
func ExampleWorker_TaskGroup() {
	team := xomp.MustTeam(xomp.Preset("xgomptb", 4))
	total := make(chan int, 64)
	team.Run(func(w *xomp.Worker) {
		w.TaskGroup(func(w *xomp.Worker) {
			for i := 0; i < 4; i++ {
				w.Spawn(func(w *xomp.Worker) {
					// Grandchildren not joined by the child itself.
					for j := 0; j < 4; j++ {
						w.Spawn(func(*xomp.Worker) { total <- 1 })
					}
				})
			}
		})
		// All 16 grandchildren are done here.
		fmt.Println(len(total))
	})
	// Output: 16
}

// NewPool (here through MustPool) builds the one-shard ShardedPool: it
// serves independent jobs submitted concurrently from many goroutines
// against one persistent worker team.
func ExampleNewPool() {
	pool := xomp.MustPool(xomp.Preset("xgomptb", 4))
	defer pool.Close()

	squares := make([]int, 8)
	jobs := make([]*xomp.Job, len(squares))
	for i := range squares {
		i := i
		job, err := pool.Submit(func(w *xomp.Worker) {
			w.Spawn(func(*xomp.Worker) { squares[i] = i * i })
		})
		if err != nil {
			panic(err)
		}
		jobs[i] = job
	}
	for _, j := range jobs {
		if err := j.Wait(); err != nil {
			panic(err)
		}
	}
	fmt.Println(squares)
	// Output: [0 1 4 9 16 25 36 49]
}

// A ShardedPool scales the job server across NUMA domains: one team per
// domain, power-of-two-choices placement, and a second-level balancer that
// migrates queued jobs off overloaded shards.
func ExampleShardedPool() {
	pool := xomp.MustShardedPool(xomp.ShardConfig{
		Shards: 2,
		Team:   xomp.Preset("xgomptb+naws", 2), // workers per shard
	})
	defer pool.Close()

	table := make([][]int, 16)
	jobs := make([]*xomp.Job, len(table))
	for i := range table {
		i := i
		table[i] = make([]int, 64)
		// Submit picks the less loaded of two random shards; SubmitTo(s,
		// fn) would pin the job to shard s instead.
		job, err := pool.Submit(func(w *xomp.Worker) {
			for lo := 0; lo < len(table[i]); lo += 16 {
				w.Spawn(func(*xomp.Worker) {
					for k := lo; k < lo+16; k++ {
						table[i][k] = i * k
					}
				})
			}
		})
		if err != nil {
			panic(err)
		}
		jobs[i] = job
	}
	done := 0
	for _, j := range jobs {
		if err := j.Wait(); err != nil {
			panic(err)
		}
		done++
	}
	fmt.Println(done, "jobs on", pool.Shards(), "shards:", table[15][63])
	// Output: 16 jobs on 2 shards: 945
}

// Table IV as a lookup: the DLB settings for a measured mean task
// duration, fixed into a team's configuration before it is built.
func ExampleGuidelineFor() {
	for _, mean := range []time.Duration{300 * time.Nanosecond, 2 * time.Millisecond} {
		cfg := xomp.Preset("xgomptb", 4)
		cfg.DLB = xomp.GuidelineFor(mean, 1)
		team := xomp.MustTeam(cfg)
		fmt.Println(mean, team.Config().DLB.Strategy, team.Config().DLB.NSteal)
	}
	// Output:
	// 300ns na-ws 1
	// 2ms na-rp 32
}
