// Quickstart: spawn recursive tasks on the paper's XGOMPTB runtime
// (XQueue + distributed tree barrier) and wait for them with taskwait —
// the OpenMP "parallel + single" idiom — first with closures, then with
// closure-free call tasks, which allocate nothing for the first nine calls
// of each task body.
package main

import (
	"fmt"
	"runtime"

	"repro/internal/prof"
	"repro/xomp"
)

// fib spawns each child as a closure: simple, but the closure and the
// variable it captures are heap objects, two per task.
func fib(w *xomp.Worker, n int) int {
	if n < 2 {
		return n
	}
	var a int
	w.Spawn(func(w *xomp.Worker) { a = fib(w, n-1) }) // child task
	b := fib(w, n-2)                                  // compute locally
	w.TaskWait()                                      // join children
	return a + b
}

// callFib spawns each child as a call task: a plain function whose argument
// rides in the task frame and whose result lands in a slot of this frame.
func callFib(w *xomp.Worker, n uint64) uint64 {
	if n < 2 {
		return n
	}
	a := w.SpawnCall(fibCall, n-1, 0, 0) // child task; *a is its result
	b := callFib(w, n-2)                 // compute locally
	w.TaskWait()                         // join children: *a is final
	return *a + b
}

func fibCall(w *xomp.Worker, t *xomp.Task) { t.Return(callFib(w, t.Arg(0))) }

func main() {
	team := xomp.MustTeam(xomp.Preset("xgomptb", runtime.NumCPU()))

	var result int
	team.Run(func(w *xomp.Worker) { result = fib(w, 28) })
	fmt.Println("fib(28) =", result) // 317811

	var callResult uint64
	team.Run(func(w *xomp.Worker) { callResult = callFib(w, 28) })
	fmt.Println("fib(28) =", callResult, "without closures")

	fmt.Printf("executed %d tasks across %d workers\n",
		team.Profile().Sum(prof.CntTasksExecuted), team.Workers())
}
