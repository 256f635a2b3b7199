// Package bots implements the nine applications of the Barcelona OpenMP
// Task Suite the paper evaluates with (§VI): Fib, NQueens, FFT, Floorplan,
// Health, UTS, Strassen, Sort, and Align. Each application provides a
// task-parallel implementation against the runtime in internal/core, a
// sequential reference implementation, and an exact verification that the
// parallel result matches the reference.
//
// Inputs are synthesized deterministically (the original BOTS input files
// are not redistributable); every application exposes four scales. The
// paper's input sizes (Fib 42, 536M-point FFT, 1B-element Sort, ...) are
// sized for a 192-core machine — ScaleLarge here preserves each
// application's task-granularity class on commodity hosts, which is what
// the evaluation's orderings depend on.
package bots

import (
	"fmt"

	"repro/internal/core"
)

// Scale selects an input size.
type Scale int

const (
	// ScaleTest is sized for unit tests (sub-second sequential runs).
	ScaleTest Scale = iota
	// ScaleSmall matches the paper's scaled-down DLB sweep inputs.
	ScaleSmall
	// ScaleMedium sits between the sweep and headline inputs.
	ScaleMedium
	// ScaleLarge is the headline-benchmark scale for this repository.
	ScaleLarge
)

// String returns the scale name.
func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleLarge:
		return "large"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// ParseScale is the inverse of Scale.String: it maps a scale name, as the
// command-line tools spell it, to its Scale.
func ParseScale(name string) (Scale, error) {
	for s := ScaleTest; s <= ScaleLarge; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (test|small|medium|large)", name)
}

// Benchmark is one BOTS application instance. RunParallel may be invoked
// repeatedly (each call resets per-run state); Verify must be called after
// at least one RunParallel.
type Benchmark interface {
	// Name returns the paper's benchmark name (lowercase).
	Name() string
	// Params describes the instance, e.g. "n=30".
	Params() string
	// RunParallel executes the task-parallel version on the team.
	RunParallel(tm *core.Team)
	// RunTask executes the task-parallel version as a single task body on
	// an already-running team — the job-body form for a shared task
	// service (see TaskRunner).
	RunTask(w *core.Worker)
	// RunSequential executes the reference implementation.
	RunSequential()
	// Verify checks the most recent RunParallel result against the
	// sequential reference and application invariants.
	Verify() error
}

// TaskRunner is implemented by every benchmark in this package: RunTask
// executes the whole parallel phase (input preparation included) as a
// single task body on an already-running team. This is how a benchmark
// runs as one job on a shared task service (xomp.ShardedPool) — or nested inside
// a larger region — instead of owning a region via RunParallel. RunTask
// joins its task subtree with a taskgroup, so results are final and Verify
// is valid as soon as RunTask returns.
//
// Instances are stateful: use one Benchmark value per in-flight job.
type TaskRunner interface {
	RunTask(w *core.Worker)
}

// Every benchmark doubles as a job body for the shared task service.
var (
	_ TaskRunner = (*Fib)(nil)
	_ TaskRunner = (*NQueens)(nil)
	_ TaskRunner = (*FFT)(nil)
	_ TaskRunner = (*Floorplan)(nil)
	_ TaskRunner = (*Health)(nil)
	_ TaskRunner = (*UTS)(nil)
	_ TaskRunner = (*Strassen)(nil)
	_ TaskRunner = (*Sort)(nil)
	_ TaskRunner = (*Align)(nil)
	_ TaskRunner = (*FibCutoff)(nil)
	_ TaskRunner = (*NQueensCutoff)(nil)
)

// Names lists the applications in the paper's figure order.
var Names = []string{
	"fib", "nqueens", "fft", "floorplan", "health", "uts", "strassen", "sort", "align",
}

// New constructs the named benchmark at the given scale.
func New(name string, sc Scale) (Benchmark, error) {
	switch name {
	case "fib":
		return NewFib(sc), nil
	case "nqueens":
		return NewNQueens(sc), nil
	case "fft":
		return NewFFT(sc), nil
	case "floorplan":
		return NewFloorplan(sc), nil
	case "health":
		return NewHealth(sc), nil
	case "uts":
		return NewUTS(sc), nil
	case "strassen":
		return NewStrassen(sc), nil
	case "sort":
		return NewSort(sc), nil
	case "align":
		return NewAlign(sc), nil
	}
	return nil, fmt.Errorf("bots: unknown benchmark %q", name)
}

// MustNew is New, panicking on unknown names. For harness tables.
func MustNew(name string, sc Scale) Benchmark {
	b, err := New(name, sc)
	if err != nil {
		panic(err)
	}
	return b
}
