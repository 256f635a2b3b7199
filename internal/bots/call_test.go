package bots

import (
	"testing"

	"repro/internal/core"
)

// maxAllocsPerJob bounds the heap objects one fib or nqueens job may cost
// on a serving team. Their tasks are call tasks, so what remains is per
// job — the method value and the TaskGroup closure — never per task: a
// closure spawn would cost about two objects per task, i.e. thousands.
const maxAllocsPerJob = 8

// callTaskApps are the applications whose tasks are call tasks, plain and
// with a cutoff that still leaves tasks to spawn.
func callTaskApps() []Benchmark {
	return []Benchmark{NewFib(ScaleTest), NewNQueens(ScaleTest), NewFibCutoff(ScaleTest, 6), nqueensCutoff(3)}
}

// Every call-task application verifies on every preset, as a region and as
// a job on a serving team.
func TestCallTaskAppsEveryPreset(t *testing.T) {
	for _, preset := range core.PresetNames() {
		t.Run(preset, func(t *testing.T) {
			for _, b := range callTaskApps() {
				runBench(t, b, preset, 4)
			}
			tm := core.MustTeam(core.Preset(preset, 4))
			if err := tm.Serve(); err != nil {
				t.Fatal(err)
			}
			defer tm.Close()
			for _, b := range callTaskApps() {
				j, err := tm.Submit(b.RunTask)
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Wait(); err != nil {
					t.Fatalf("%s: %v", b.Name(), err)
				}
				if err := b.Verify(); err != nil {
					t.Fatalf("%s: %v", b.Name(), err)
				}
			}
		})
	}
}

func TestCallTaskJobsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	tm := core.MustTeam(core.Preset("xgomptb+naws", 2))
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	for _, b := range []Benchmark{NewFib(ScaleTest), NewNQueens(ScaleTest)} {
		run := func() {
			j, err := tm.Submit(b.RunTask)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Wait(); err != nil {
				t.Fatal(err)
			}
			j.Release()
		}
		run() // warm the frame pools
		got := testing.AllocsPerRun(20, run)
		t.Logf("%s: %.1f allocs per job", b.Name(), got)
		if got > maxAllocsPerJob {
			t.Errorf("%s: %.1f allocs per job, want at most %d", b.Name(), got, maxAllocsPerJob)
		}
		if err := b.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}
