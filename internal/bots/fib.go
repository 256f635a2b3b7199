package bots

import (
	"fmt"

	"repro/internal/core"
)

// Fib is the BOTS Fibonacci benchmark: one task per recursive call with no
// cutoff, the most extreme fine-grained workload in the suite (the paper
// measures 10–80 cycles per task). Its task DAG has a long critical path
// and little parallel slack, which is why NA-RP degrades it (§VI-B1).
type Fib struct {
	n int
	// cutoff is the recursion depth below which no task is spawned; n for
	// the plain benchmark, which never reaches it.
	cutoff int
	result uint64
	ran    bool
}

// NewFib returns the instance for the given scale.
func NewFib(sc Scale) *Fib {
	n := map[Scale]int{ScaleTest: 18, ScaleSmall: 23, ScaleMedium: 26, ScaleLarge: 29}[sc]
	return &Fib{n: n, cutoff: n}
}

// Name implements Benchmark.
func (f *Fib) Name() string { return "fib" }

// Params implements Benchmark.
func (f *Fib) Params() string { return fmt.Sprintf("n=%d", f.n) }

// RunParallel implements Benchmark.
func (f *Fib) RunParallel(tm *core.Team) {
	tm.Run(func(w *core.Worker) {
		f.result = fibTask(w, f.n, f.cutoff)
	})
	f.ran = true
}

// RunTask implements TaskRunner: the same computation as one job body.
func (f *Fib) RunTask(w *core.Worker) {
	w.TaskGroup(func(w *core.Worker) { f.result = fibTask(w, f.n, f.cutoff) })
	f.ran = true
}

// fibTask computes fib(n), spawning fib(n-1) as a call task and computing
// fib(n-2) inline on the same frame, until cutoff more levels have passed.
func fibTask(w *core.Worker, n, cutoff int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	if cutoff <= 0 {
		return fibSerial(n)
	}
	a := w.SpawnCall(fibCall, uint64(n-1), uint64(cutoff-1), 0)
	b := fibTask(w, n-2, cutoff-1)
	w.TaskWait()
	return *a + b
}

// fibCall is the body of one spawned recursive call: Arg(0) is n and
// Arg(1) the remaining cutoff.
func fibCall(w *core.Worker, t *core.Task) {
	t.Return(fibTask(w, int(t.Arg(0)), int(t.Arg(1))))
}

// fibSerial is the task-free recursion below the cutoff.
func fibSerial(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return fibSerial(n-1) + fibSerial(n-2)
}

// RunSequential implements Benchmark.
func (f *Fib) RunSequential() { _ = fibIter(f.n) }

// fibIter is the closed-form-free reference.
func fibIter(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// Verify implements Benchmark.
func (f *Fib) Verify() error {
	if !f.ran {
		return fmt.Errorf("fib: Verify before RunParallel")
	}
	if want := fibIter(f.n); f.result != want {
		return fmt.Errorf("fib(%d) = %d, want %d", f.n, f.result, want)
	}
	return nil
}
