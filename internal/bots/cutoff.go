package bots

import "fmt"

// Manual-cutoff variants. The original BOTS ships "if-cutoff" versions of
// its recursive benchmarks that stop spawning below a recursion depth and
// continue serially — the coarsening knob practitioners use when the
// runtime cannot sustain fine granularity. Sweeping the cutoff reproduces
// the same granularity/performance trade-off the paper's Fig. 8 batch-size
// sweep shows for loop-shaped work, applied to recursive work. Each variant
// runs its plain benchmark's task code with a cutoff the plain one never
// reaches.

// FibCutoff is Fib with task creation limited to the top cutoff levels of
// the recursion tree.
type FibCutoff struct {
	Fib
}

// NewFibCutoff returns Fib at the given scale spawning tasks only above
// the given recursion depth.
func NewFibCutoff(sc Scale, cutoff int) *FibCutoff {
	f := &FibCutoff{Fib: *NewFib(sc)}
	f.cutoff = cutoff
	return f
}

// Name implements Benchmark.
func (f *FibCutoff) Name() string { return "fib-cutoff" }

// Params implements Benchmark.
func (f *FibCutoff) Params() string { return fmt.Sprintf("n=%d cutoff=%d", f.n, f.cutoff) }
