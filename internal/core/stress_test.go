package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/numa"
	"repro/internal/prof"
)

// The tree barrier must release correctly for every tree shape: full,
// degenerate, single-node, and non-power-of-two.
func TestTreeBarrierWorkerCountSweep(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 9, 12, 16, 31} {
		t.Run(fmt.Sprintf("%dworkers", n), func(t *testing.T) {
			cfg := Preset("xgomptb", n)
			cfg.Topology = numa.Synthetic(n, min(n, 4))
			tm := MustTeam(cfg)
			var ran atomic.Int64
			runWithTimeout(t, 60*time.Second, "sweep", func() {
				for region := 0; region < 3; region++ {
					tm.Run(func(w *Worker) {
						for i := 0; i < 64; i++ {
							w.Spawn(func(*Worker) { ran.Add(1) })
						}
					})
				}
			})
			if got := ran.Load(); got != 3*64 {
				t.Fatalf("ran %d tasks, want %d", got, 3*64)
			}
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Tiny queues force the immediate-execution overflow path constantly;
// results must still be exact and the region must terminate.
func TestTinyQueuesOverflowPath(t *testing.T) {
	for _, preset := range []string{"xgomp", "xgomptb", "xgomptb+naws"} {
		t.Run(preset, func(t *testing.T) {
			cfg := Preset(preset, 4)
			cfg.QueueSize = 2 // minimum legal
			tm := MustTeam(cfg)
			runWithTimeout(t, 60*time.Second, preset, func() {
				var got int
				tm.Run(func(w *Worker) { got = taskFib(w, 15) })
				if got != serialFib(15) {
					t.Errorf("fib wrong with tiny queues")
				}
			})
			// The overflow rule must actually have fired.
			if tm.Profile().Sum(prof.CntImmExec) == 0 {
				t.Error("no immediate executions despite 2-slot queues")
			}
		})
	}
}

// Descriptor recycling must never alias two live tasks: run a workload
// where every task writes its identity into a captured slot and verify
// after the fact. Aliasing would manifest as lost or duplicated writes.
func TestDescriptorRecyclingIntegrity(t *testing.T) {
	cfg := Preset("xgomptb+naws", 4)
	tm := MustTeam(cfg)
	const tasks = 30000
	results := make([]int64, tasks)
	runWithTimeout(t, 60*time.Second, "recycle", func() {
		tm.Run(func(w *Worker) {
			for i := 0; i < tasks; i++ {
				i := i
				w.Spawn(func(*Worker) {
					atomic.AddInt64(&results[i], 1)
				})
			}
		})
	})
	for i := range results {
		if results[i] != 1 {
			t.Fatalf("task %d executed %d times (descriptor aliasing?)", i, results[i])
		}
	}
	// Allocator stats: fresh allocations must be far below task count
	// (i.e. recycling actually happens).
	st := tm.AllocStats()
	if st.FreshAllocs >= tasks {
		t.Errorf("no recycling: %d fresh allocs for %d tasks", st.FreshAllocs, tasks)
	}
}

// Many regions back to back on a DLB team: cross-region state (rounds,
// requests, redirect arms) must not leak into wrong-answer territory.
func TestManyRegionsDLBStateHygiene(t *testing.T) {
	cfg := Preset("xgomptb+narp", 4)
	cfg.DLB.TInterval = 2 // aggressive requests
	tm := MustTeam(cfg)
	runWithTimeout(t, 120*time.Second, "hygiene", func() {
		for region := 0; region < 50; region++ {
			var sum atomic.Int64
			tm.Run(func(w *Worker) {
				for i := 1; i <= 100; i++ {
					i := i
					w.Spawn(func(*Worker) { sum.Add(int64(i)) })
				}
			})
			if got := sum.Load(); got != 5050 {
				t.Fatalf("region %d: sum %d, want 5050", region, got)
			}
		}
	})
}

// Every worker spawning concurrently (SPMD-style: one spawner task per
// worker, each spawning and joining its own children) stresses the
// multi-producer discipline of the queue matrix.
func TestSPMDAllWorkersSpawn(t *testing.T) {
	for _, preset := range []string{"gomp", "lomp", "xgomptb", "xgomptb+naws"} {
		t.Run(preset, func(t *testing.T) {
			cfg := Preset(preset, 4)
			tm := MustTeam(cfg)
			var ran atomic.Int64
			runWithTimeout(t, 60*time.Second, preset, func() {
				tm.Run(func(w *Worker) {
					for s := 0; s < 4; s++ {
						w.Spawn(func(w *Worker) {
							for i := 0; i < 500; i++ {
								w.Spawn(func(*Worker) { ran.Add(1) })
							}
							w.TaskWait()
						})
					}
				})
			})
			if got := ran.Load(); got != 4*500 {
				t.Fatalf("ran %d, want %d", got, 4*500)
			}
		})
	}
}

// Plain spawns, a chunked loop and a TaskWait chain inside one region,
// across presets.
func TestMixedConstructs(t *testing.T) {
	for _, preset := range []string{"xgomptb", "xgomptb+naws"} {
		t.Run(preset, func(t *testing.T) {
			tm := MustTeam(Preset(preset, 4))
			var plain, loop atomic.Int64
			var ordered int
			runWithTimeout(t, 60*time.Second, preset, func() {
				tm.Run(func(w *Worker) {
					for i := 0; i < 100; i++ {
						w.Spawn(func(*Worker) { plain.Add(1) })
					}
					for lo := 0; lo < 1000; lo += 32 {
						hi := min(lo+32, 1000)
						w.Spawn(func(*Worker) { loop.Add(int64(hi - lo)) })
					}
					for i := 0; i < 50; i++ {
						w.Spawn(func(*Worker) { ordered++ })
						w.TaskWait()
					}
				})
			})
			if plain.Load() != 100 || loop.Load() != 1000 || ordered != 50 {
				t.Fatalf("plain=%d loop=%d ordered=%d", plain.Load(), loop.Load(), ordered)
			}
		})
	}
}
