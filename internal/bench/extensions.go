package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bots"
	"repro/internal/core"
	"repro/internal/prof"
)

// Extensions lists experiments beyond the paper's figures: ablations of
// this reproduction's own design space. They run through cmd/benchall
// like the paper experiments (ids start with "ext-").
var Extensions = []Experiment{
	{"ext-cutoff", "Granularity sweep over BOTS manual-cutoff variants", runExtCutoff},
	{"ext-autotune", "Auto-tuner vs static vs best-of-sweep on BOTS", runExtAutotune},
	{"ext-mech", "Mechanism scaling: substrate and counter throughput by worker count", runExtMech},
}

// AnyByID resolves ids across the paper experiments and extensions.
func AnyByID(id string) (Experiment, bool) {
	if e, ok := ByID(id); ok {
		return e, true
	}
	for _, e := range Extensions {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runExtCutoff sweeps the manual task-creation cutoff of the recursive
// benchmarks — the practitioner's coarsening knob — showing the task
// count / run time trade-off on the lock-based and lock-less runtimes.
func runExtCutoff(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintf(w, "Extension — fib cutoff sweep (%d workers, scale=%v)\n", o.Workers, o.Scale)
	t := newTable(w, "cutoff", "tasks", "gomp time(s)", "xgomptb time(s)")
	for _, cutoff := range []int{1, 2, 4, 8, 12, 64} {
		var tasks uint64
		cells := []string{fmt.Sprintf("%d", cutoff)}
		var taskCell string
		for _, preset := range []string{"gomp", "xgomptb"} {
			tm := o.team(preset)
			f := bots.NewFibCutoff(o.Scale, cutoff)
			var best time.Duration = 1<<63 - 1
			for r := 0; r < o.Reps; r++ {
				start := time.Now()
				f.RunParallel(tm)
				if d := time.Since(start); d < best {
					best = d
				}
			}
			if err := f.Verify(); err != nil {
				return err
			}
			tasks = tm.Profile().Sum(prof.CntTasksCreated) / uint64(o.Reps)
			taskCell = fmtCount(tasks)
			cells = append(cells, fmtDur(best))
		}
		t.row(cells[0], taskCell, cells[1], cells[2])
	}
	return t.flush()
}

// runExtAutotune compares static balancing, the guideline chosen from a
// measured probe (core.GuidelineFor), and the sweep's best configuration
// per application.
func runExtAutotune(o Options, w io.Writer) error {
	o = o.withDefaults()
	s, err := getDLBStudy(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Extension — guideline tuning vs static vs best-of-sweep (%d workers, scale=%v)\n", o.Workers, o.Scale)
	t := newTable(w, "benchmark", "mean task", "static", "autotuned", "tuned strategy", "best-of-sweep")
	for _, app := range bots.Names {
		// Probe: measure granularity, apply the Table-IV guideline.
		per, _, err := o.meanTaskDuration(app)
		if err != nil {
			return err
		}
		cfg := core.GuidelineFor(per, o.Zones)
		b := bots.MustNew(app, o.Scale)
		tuned, err := o.timeOn(o.teamWithDLB(cfg), b)
		if err != nil {
			return err
		}
		bestRP := s.best[app][core.DLBRedirectPush].dur
		bestWS := s.best[app][core.DLBWorkSteal].dur
		best := bestRP
		if bestWS < best {
			best = bestWS
		}
		t.row(app,
			per.Round(time.Microsecond).String(),
			fmtDur(s.static[app].MeanDuration()),
			fmtDur(tuned),
			cfg.Strategy.String(),
			fmtDur(best))
	}
	return t.flush()
}

// runExtMech prints the lock-vs-lock-less throughput scaling table: the
// paper's mechanism, measurable on any host.
func runExtMech(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintf(w, "Extension — hand-off throughput (Mops/s) by substrate and worker count\n")
	header := []string{"substrate"}
	counts := []int{1, 2, 4, 8}
	for _, n := range counts {
		header = append(header, fmt.Sprintf("%dw", n))
	}
	t := newTable(w, header...)
	for _, kind := range []core.Sched{core.SchedGOMP, core.SchedLOMP, core.SchedXQueue} {
		cells := []string{kind.String()}
		for _, n := range counts {
			ops := measureSubstrate(kind, n, 200*time.Millisecond)
			cells = append(cells, fmt.Sprintf("%.2f", ops/1e6))
		}
		t.row(cells...)
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nTask counter increments (Mops/s): shared atomic vs distributed cells\n")
	t2 := newTable(w, "counter", "1w", "2w", "4w", "8w")
	for _, kind := range []string{"atomic", "distributed"} {
		cells := []string{kind}
		for _, n := range counts {
			ops := measureCounter(kind, n, 100*time.Millisecond)
			cells = append(cells, fmt.Sprintf("%.1f", ops/1e6))
		}
		t2.row(cells...)
	}
	return t2.flush()
}

// measureSubstrate runs a push/pop pair per worker for the duration and
// returns operations per second.
func measureSubstrate(kind core.Sched, workers int, d time.Duration) float64 {
	return core.MeasureSubstrate(kind, workers, d)
}

// measureCounter measures created+finished pairs per second.
func measureCounter(kind string, workers int, d time.Duration) float64 {
	return core.MeasureCounter(kind == "distributed", workers, d)
}
