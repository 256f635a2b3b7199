package bots

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/prof"
)

func TestFibCutoffCorrectAtAllCutoffs(t *testing.T) {
	tm := core.MustTeam(core.Preset("xgomptb", 4))
	for _, cutoff := range []int{0, 1, 5, 100} {
		f := NewFibCutoff(ScaleTest, cutoff)
		f.RunParallel(tm)
		if err := f.Verify(); err != nil {
			t.Fatalf("cutoff %d: %v", cutoff, err)
		}
	}
}

// nqueensCutoff is NQueens at test scale spawning tasks only for the
// first cutoff rows, the shape of the BOTS manual-cutoff version.
func nqueensCutoff(cutoff int) *NQueens {
	q := NewNQueens(ScaleTest)
	q.cutoff = cutoff
	return q
}

func TestNQueensCutoffCorrectAtAllCutoffs(t *testing.T) {
	tm := core.MustTeam(core.Preset("xgomptb", 4))
	for _, cutoff := range []int{0, 1, 3, 100} {
		q := nqueensCutoff(cutoff)
		q.RunParallel(tm)
		if err := q.Verify(); err != nil {
			t.Fatalf("cutoff %d: %v", cutoff, err)
		}
	}
}

// The cutoff must actually control task counts: deeper cutoff → more
// tasks, cutoff 0 → a single region with zero spawned tasks... except the
// root work happens inline, so exactly zero.
func TestCutoffControlsGranularity(t *testing.T) {
	var prev uint64
	for _, cutoff := range []int{0, 2, 4, 8} {
		tm := core.MustTeam(core.Preset("xgomptb", 2))
		f := NewFibCutoff(ScaleTest, cutoff)
		f.RunParallel(tm)
		tasks := tm.Profile().Sum(prof.CntTasksCreated)
		if cutoff == 0 && tasks != 0 {
			t.Errorf("cutoff 0 created %d tasks, want 0", tasks)
		}
		if tasks < prev {
			t.Errorf("cutoff %d created %d tasks, fewer than shallower cutoff (%d)", cutoff, tasks, prev)
		}
		prev = tasks
	}
}

func TestCutoffNames(t *testing.T) {
	f := NewFibCutoff(ScaleTest, 4)
	if f.Name() != "fib-cutoff" || f.Params() == "" {
		t.Error("fib-cutoff metadata wrong")
	}
}

// The granularity ablation: how run time responds to task granularity on
// a fixed runtime — the recursive analogue of the paper's Fig. 8 batch
// sweep.
func BenchmarkFibCutoffSweep(b *testing.B) {
	for _, cutoff := range []int{2, 6, 10, 100} {
		b.Run(fmt.Sprintf("cutoff%d", cutoff), func(b *testing.B) {
			tm := core.MustTeam(core.Preset("xgomptb", 4))
			f := NewFibCutoff(ScaleTest, cutoff)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.RunParallel(tm)
			}
		})
	}
}
