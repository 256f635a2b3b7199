package bots

import (
	"fmt"

	"repro/internal/core"
)

// NQueens is the BOTS N-Queens benchmark: count all placements of n queens
// on an n×n board. One task is spawned per branch of the backtracking tree,
// like the BOTS task version — extremely fine-grained with an irregular
// DAG, the workload where the paper reports its largest improvements
// (96.5× for XGOMP, 1522.8× for XGOMPTB).
type NQueens struct {
	n int
	// cutoff is the row from which a branch is counted serially; n for the
	// plain benchmark, which spawns a task for every branch.
	cutoff int
	result int64
	ran    bool
}

// knownSolutions[n] is the number of n-queens solutions (OEIS A000170).
var knownSolutions = map[int]int64{
	1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92,
	9: 352, 10: 724, 11: 2680, 12: 14200, 13: 73712, 14: 365596,
}

// NewNQueens returns the instance for the given scale.
func NewNQueens(sc Scale) *NQueens {
	n := map[Scale]int{ScaleTest: 8, ScaleSmall: 10, ScaleMedium: 11, ScaleLarge: 12}[sc]
	return &NQueens{n: n, cutoff: n}
}

// Name implements Benchmark.
func (q *NQueens) Name() string { return "nqueens" }

// Params implements Benchmark.
func (q *NQueens) Params() string { return fmt.Sprintf("n=%d", q.n) }

// maxQueens bounds n: a board packs one 4-bit column per row into a word.
const maxQueens = 16

// board is a partial placement packed into one word, the column of row r
// in bits 4r..4r+3, so a branch travels in a call task's argument block.
type board uint64

// with returns the placement extended by a queen at (row, col).
func (b board) with(row, col int) board { return b | board(col)<<(4*row) }

// safe reports whether a queen at (row, col) conflicts with rows [0, row).
func (b board) safe(row, col int) bool {
	for r := 0; r < row; r++ {
		c := int(b >> (4 * r) & 15)
		if c == col || c-col == row-r || col-c == row-r {
			return false
		}
	}
	return true
}

// queensTask counts solutions below the placement b of rows [0, row),
// spawning one call task per safe column — the BOTS tasking shape — until
// row reaches cutoff, and counting serially from there.
func queensTask(w *core.Worker, n, row, cutoff int, b board) int64 {
	if row == n {
		return 1
	}
	if row >= cutoff {
		return queensSeq(n, row, b)
	}
	var counts [maxQueens]*uint64
	k := 0
	for col := 0; col < n; col++ {
		if b.safe(row, col) {
			counts[k] = w.SpawnCall(queensCall, uint64(n)|uint64(row+1)<<8, uint64(cutoff), uint64(b.with(row, col)))
			k++
		}
	}
	w.TaskWait()
	var sum int64
	for _, c := range counts[:k] {
		sum += int64(*c)
	}
	return sum
}

// queensCall is the body of one branch: Arg(0) packs n and the row to
// place, Arg(1) is the cutoff and Arg(2) the board.
func queensCall(w *core.Worker, t *core.Task) {
	nr := t.Arg(0)
	t.Return(uint64(queensTask(w, int(nr&0xff), int(nr>>8), int(t.Arg(1)), board(t.Arg(2)))))
}

// queensSeq is the sequential reference.
func queensSeq(n, row int, b board) int64 {
	if row == n {
		return 1
	}
	var sum int64
	for col := 0; col < n; col++ {
		if b.safe(row, col) {
			sum += queensSeq(n, row+1, b.with(row, col))
		}
	}
	return sum
}

// RunParallel implements Benchmark.
func (q *NQueens) RunParallel(tm *core.Team) {
	tm.Run(func(w *core.Worker) {
		q.result = queensTask(w, q.n, 0, q.cutoff, 0)
	})
	q.ran = true
}

// RunTask implements TaskRunner: the same computation as one job body.
func (q *NQueens) RunTask(w *core.Worker) {
	w.TaskGroup(func(w *core.Worker) {
		q.result = queensTask(w, q.n, 0, q.cutoff, 0)
	})
	q.ran = true
}

// RunSequential implements Benchmark.
func (q *NQueens) RunSequential() { _ = queensSeq(q.n, 0, 0) }

// Verify implements Benchmark.
func (q *NQueens) Verify() error {
	if !q.ran {
		return fmt.Errorf("nqueens: Verify before RunParallel")
	}
	want, ok := knownSolutions[q.n]
	if !ok {
		want = queensSeq(q.n, 0, 0)
	}
	if q.result != want {
		return fmt.Errorf("nqueens(%d) = %d, want %d", q.n, q.result, want)
	}
	return nil
}
