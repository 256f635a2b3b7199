package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/numa"
	"repro/internal/prof"
)

// runWithTimeout guards against termination-detection bugs hanging the
// suite: barriers that never release show up as a test failure, not a
// stuck CI job.
func runWithTimeout(t *testing.T, d time.Duration, name string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: timed out after %v (barrier or taskwait never released)", name, d)
	}
}

// serialFib is the reference for the recursive task tests.
func serialFib(n int) int {
	if n < 2 {
		return n
	}
	return serialFib(n-1) + serialFib(n-2)
}

// taskFib spawns one task per recursive call, the BOTS Fib pattern.
func taskFib(w *Worker, n int) int {
	if n < 2 {
		return n
	}
	var a int
	w.Spawn(func(w *Worker) { a = taskFib(w, n-1) })
	b := taskFib(w, n-2)
	w.TaskWait()
	return a + b
}

func testConfigs() map[string]Config {
	out := make(map[string]Config)
	for _, name := range PresetNames() {
		cfg := Preset(name, 4)
		cfg.Topology = numa.Synthetic(4, 2)
		cfg.QueueSize = 64
		out[name] = cfg
	}
	return out
}

func TestFibAllPresets(t *testing.T) {
	const n = 16
	want := serialFib(n)
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			tm := MustTeam(cfg)
			runWithTimeout(t, 30*time.Second, name, func() {
				var got int
				tm.Run(func(w *Worker) { got = taskFib(w, n) })
				if got != want {
					t.Errorf("fib(%d) = %d, want %d", n, got, want)
				}
			})
		})
	}
}

func TestEveryTaskRunsExactlyOnce(t *testing.T) {
	const tasks = 5000
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			tm := MustTeam(cfg)
			counts := make([]atomic.Int32, tasks)
			runWithTimeout(t, 30*time.Second, name, func() {
				tm.Run(func(w *Worker) {
					for i := 0; i < tasks; i++ {
						i := i
						w.Spawn(func(*Worker) { counts[i].Add(1) })
					}
				})
			})
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("task %d ran %d times", i, got)
				}
			}
			// Profiler totals must agree.
			p := tm.Profile()
			if got := p.Sum(prof.CntTasksCreated); got != tasks {
				t.Errorf("created counter = %d, want %d", got, tasks)
			}
			if got := p.Sum(prof.CntTasksExecuted); got != tasks {
				t.Errorf("executed counter = %d, want %d", got, tasks)
			}
		})
	}
}

func TestTaskWaitHappensBefore(t *testing.T) {
	// Values written by children must be visible after TaskWait without
	// extra synchronization (the refs counter provides the edge).
	cfg := Preset("xgomptb", 4)
	tm := MustTeam(cfg)
	runWithTimeout(t, 30*time.Second, "hb", func() {
		tm.Run(func(w *Worker) {
			for round := 0; round < 200; round++ {
				vals := make([]int, 32)
				for i := range vals {
					i := i
					w.Spawn(func(*Worker) { vals[i] = i + 1 })
				}
				w.TaskWait()
				for i, v := range vals {
					if v != i+1 {
						t.Errorf("round %d: vals[%d] = %d not visible after TaskWait", round, i, v)
						return
					}
				}
			}
		})
	})
}

func TestTeamReuse(t *testing.T) {
	cfg := Preset("xgomptb", 3)
	tm := MustTeam(cfg)
	for region := 0; region < 10; region++ {
		var total atomic.Int64
		runWithTimeout(t, 30*time.Second, "reuse", func() {
			tm.Run(func(w *Worker) {
				for i := 0; i < 100; i++ {
					w.Spawn(func(*Worker) { total.Add(1) })
				}
			})
		})
		if total.Load() != 100 {
			t.Fatalf("region %d: %d tasks ran, want 100", region, total.Load())
		}
	}
}

func TestSingleWorkerTeams(t *testing.T) {
	for name := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg := Preset(name, 1)
			tm := MustTeam(cfg)
			runWithTimeout(t, 30*time.Second, name, func() {
				var got int
				tm.Run(func(w *Worker) { got = taskFib(w, 10) })
				if got != serialFib(10) {
					t.Errorf("fib wrong on single worker")
				}
			})
		})
	}
}

func TestNestedTaskWait(t *testing.T) {
	// Tasks that themselves spawn and wait, several levels deep.
	cfg := Preset("xgomptb+naws", 4)
	tm := MustTeam(cfg)
	var leaves atomic.Int64
	var nest func(w *Worker, depth int)
	nest = func(w *Worker, depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		for i := 0; i < 3; i++ {
			w.Spawn(func(w *Worker) { nest(w, depth-1) })
		}
		w.TaskWait()
	}
	runWithTimeout(t, 30*time.Second, "nest", func() {
		tm.Run(func(w *Worker) { nest(w, 6) })
	})
	if got := leaves.Load(); got != 729 {
		t.Fatalf("%d leaves, want 729", got)
	}
}

// With one worker, the GOMP queue runs tasks in spawn order: every task
// has the default priority, so GNU's priority queue is FIFO.
func TestGompFIFO(t *testing.T) {
	tm := MustTeam(Preset("gomp", 1))
	var order []int
	runWithTimeout(t, 30*time.Second, "fifo", func() {
		tm.Run(func(w *Worker) {
			for i := 0; i < 8; i++ {
				w.Spawn(func(*Worker) { order = append(order, i) })
			}
		})
	})
	if len(order) != 8 {
		t.Fatalf("order = %v, want 0 through 7", order)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want 0 through 7", order)
		}
	}
}

func TestLocalityCountersPartitionExecuted(t *testing.T) {
	for _, name := range []string{"xgomptb", "xgomptb+narp", "xgomptb+naws"} {
		t.Run(name, func(t *testing.T) {
			cfg := Preset(name, 4)
			cfg.Topology = numa.Synthetic(4, 2)
			tm := MustTeam(cfg)
			runWithTimeout(t, 30*time.Second, name, func() {
				tm.Run(func(w *Worker) { taskFib(w, 15) })
			})
			p := tm.Profile()
			executed := p.Sum(prof.CntTasksExecuted)
			byLocality := p.Sum(prof.CntTasksSelf) + p.Sum(prof.CntTasksLocal) + p.Sum(prof.CntTasksRemote)
			if executed != byLocality {
				t.Errorf("executed %d != self+local+remote %d", executed, byLocality)
			}
			if executed != p.Sum(prof.CntTasksCreated) {
				t.Errorf("executed %d != created %d", executed, p.Sum(prof.CntTasksCreated))
			}
			stolen := p.Sum(prof.CntTasksStolen)
			if stolen != p.Sum(prof.CntStolenLocal)+p.Sum(prof.CntStolenRemote) {
				t.Errorf("stolen %d != local+remote split", stolen)
			}
			if p.Sum(prof.CntReqHasSteal) > p.Sum(prof.CntReqHandled) {
				t.Errorf("requests with steals exceed handled requests")
			}
		})
	}
}

func TestPlacementCountersConserveTasks(t *testing.T) {
	// For NA-WS every created task is either statically pushed or executed
	// immediately (steals move already-pushed tasks); for NA-RP redirected
	// tasks are a third placement class.
	cases := map[string]bool{"xgomptb": false, "xgomptb+naws": false, "xgomptb+narp": true}
	for name, redirectCounts := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := Preset(name, 4)
			tm := MustTeam(cfg)
			runWithTimeout(t, 30*time.Second, name, func() {
				tm.Run(func(w *Worker) { taskFib(w, 17) })
			})
			p := tm.Profile()
			created := p.Sum(prof.CntTasksCreated)
			placed := p.Sum(prof.CntStaticPush) + p.Sum(prof.CntImmExec)
			if redirectCounts {
				placed += p.Sum(prof.CntTasksStolen)
			}
			if created != placed {
				t.Errorf("created %d != placements %d", created, placed)
			}
		})
	}
}

func TestProfileTimelineBalanced(t *testing.T) {
	cfg := Preset("xgomptb", 2)
	cfg.Profile = true
	tm := MustTeam(cfg)
	runWithTimeout(t, 30*time.Second, "timeline", func() {
		tm.Run(func(w *Worker) { taskFib(w, 12) })
	})
	s := tm.Profile().Snapshot()
	for i, evs := range s.Events {
		for _, r := range evs {
			if r.End < r.Start {
				t.Fatalf("thread %d: negative-length record %+v", i, r)
			}
		}
	}
	if s.Counters[0][prof.CntTasksExecuted]+s.Counters[1][prof.CntTasksExecuted] == 0 {
		t.Fatal("no executions recorded")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Workers: 0},
		{Workers: -1},
		{Workers: 4, QueueSize: 3},
		{Workers: 4, QueueSize: 100},
		{Workers: 4, Sched: SchedGOMP, DLB: DLBConfig{Strategy: DLBWorkSteal, NVictim: 1, NSteal: 1, TInterval: 1}},
		{Workers: 4, Sched: SchedXQueue, DLB: DLBConfig{Strategy: DLBWorkSteal, NVictim: 0, NSteal: 1, TInterval: 1}},
		{Workers: 4, Sched: SchedXQueue, DLB: DLBConfig{Strategy: DLBWorkSteal, NVictim: 1, NSteal: 0, TInterval: 1}},
		{Workers: 4, Sched: SchedXQueue, DLB: DLBConfig{Strategy: DLBWorkSteal, NVictim: 1, NSteal: 1, TInterval: 0}},
		{Workers: 4, Sched: SchedXQueue, DLB: DLBConfig{Strategy: DLBWorkSteal, NVictim: 1, NSteal: 1, TInterval: 1, PLocal: 1.5}},
		{Workers: 2, Topology: numa.Synthetic(3, 1)},
	}
	for i, cfg := range bad {
		if _, err := NewTeam(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewTeam(Config{Workers: 2}); err != nil {
		t.Errorf("minimal valid config rejected: %v", err)
	}
}

func TestPresetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown preset did not panic")
		}
	}()
	Preset("nope", 2)
}

func TestNestedRegionPanics(t *testing.T) {
	tm := MustTeam(Preset("xgomptb", 2))
	tm.running.Store(true) // simulate a region in flight
	defer func() {
		if recover() == nil {
			t.Fatal("nested region did not panic")
		}
	}()
	tm.Run(func(*Worker) {})
}

func TestMoreWorkersThanCPUs(t *testing.T) {
	// Oversubscription: the stall loop must yield so all goroutine workers
	// make progress on a small GOMAXPROCS.
	cfg := Preset("xgomptb+naws", 16)
	cfg.Topology = numa.Synthetic(16, 4)
	tm := MustTeam(cfg)
	runWithTimeout(t, 60*time.Second, "oversub", func() {
		var got int
		tm.Run(func(w *Worker) { got = taskFib(w, 15) })
		if got != serialFib(15) {
			t.Errorf("wrong result under oversubscription")
		}
	})
}
