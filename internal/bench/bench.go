// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§VI–§VIII) as text tables. Each
// experiment is registered under the paper's figure/table id and can be run
// from cmd/benchall or through the root-level testing.B benchmarks.
//
// Absolute numbers will differ from the paper (its testbed is a 192-core,
// 8-socket machine); what the experiments preserve is the comparative
// shape: which runtime wins per workload class, and where the crossovers
// fall. cmd/README.md shows how to regenerate each table with cmd/benchall.
//
// The package splits by role: this file holds the shared harness plumbing
// every experiment builds on (Options and its defaults, team construction,
// timing/sampling helpers, text-table rendering, counter collection);
// experiments.go registers the paper's figure experiments (Experiment,
// Experiments, ByID) and implements Fig. 1–8; dlbexp.go implements the DLB
// sweep studies behind Fig. 7 and Tables I–III; synth.go defines the
// controllable-granularity synthetic workload behind Fig. 9/10 and Table
// IV; extensions.go registers the "ext-" ablations that go beyond the
// paper.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/bots"
	"repro/internal/core"
	"repro/internal/numa"
	"repro/internal/prof"
	"repro/internal/stats"
)

// Options configures a harness run.
type Options struct {
	// Workers is the team size. 0 → 2×GOMAXPROCS capped at 16.
	Workers int
	// Zones is the synthetic NUMA zone count. 0 → min(Workers, 4).
	Zones int
	// Scale selects the BOTS input scale.
	Scale bots.Scale
	// Reps is the number of timed repetitions averaged per cell. 0 → 3.
	Reps int
	// SweepReps is the repetitions used inside parameter sweeps. 0 → 1.
	SweepReps int
}

// withDefaults normalizes the options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Zones <= 0 {
		o.Zones = o.Workers
		if o.Zones > 4 {
			o.Zones = 4
		}
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.SweepReps <= 0 {
		o.SweepReps = 1
	}
	return o
}

// team builds a team for the named preset under the options' topology.
func (o Options) team(preset string) *core.Team {
	cfg := core.Preset(preset, o.Workers)
	cfg.Topology = numa.Synthetic(o.Workers, o.Zones)
	return core.MustTeam(cfg)
}

// teamWithDLB builds a tree-barrier XQueue team with explicit DLB settings.
func (o Options) teamWithDLB(d core.DLBConfig) *core.Team {
	cfg := core.Preset("xgomptb", o.Workers)
	cfg.Topology = numa.Synthetic(o.Workers, o.Zones)
	cfg.DLB = d
	return core.MustTeam(cfg)
}

// timeOnce runs b once on tm and returns the wall time.
func timeOnce(tm *core.Team, b bots.Benchmark) time.Duration {
	start := time.Now()
	b.RunParallel(tm)
	return time.Since(start)
}

// timeApp runs b reps times on a fresh team for the preset and returns the
// mean wall time.
func (o Options) timeApp(preset string, b bots.Benchmark) (time.Duration, error) {
	tm := o.team(preset)
	return o.timeOn(tm, b)
}

// timeOn runs b on an existing team, averaging o.Reps runs.
func (o Options) timeOn(tm *core.Team, b bots.Benchmark) (time.Duration, error) {
	s, err := o.sampleOn(tm, b)
	if err != nil {
		return 0, err
	}
	return s.MeanDuration(), nil
}

// sampleOn runs b o.Reps times on tm and returns the full sample, for
// experiments that report dispersion (the paper's error bars).
func (o Options) sampleOn(tm *core.Team, b bots.Benchmark) (*stats.Sample, error) {
	var s stats.Sample
	for i := 0; i < o.Reps; i++ {
		s.AddDuration(timeOnce(tm, b))
	}
	return &s, nil
}

// tableWriter prints aligned text tables.
type tableWriter struct {
	w      io.Writer
	header []string
	rows   [][]string
}

func newTable(w io.Writer, header ...string) *tableWriter {
	return &tableWriter{w: w, header: header}
}

func (t *tableWriter) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *tableWriter) flush() error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			if i == 0 {
				sb.WriteString(c + strings.Repeat(" ", pad))
			} else {
				sb.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		_, err := fmt.Fprintln(t.w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.header); err != nil {
		return err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

// fmtDur renders a duration in seconds with adaptive precision.
func fmtDur(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	case s >= 0.001:
		return fmt.Sprintf("%.4f", s)
	default:
		return fmt.Sprintf("%.6f", s)
	}
}

// fmtCount renders large counts the way the paper's tables do (K/M/B).
func fmtCount(v uint64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.1fB", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.1fK", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// sumCounters collects the paper's Table II/III statistics from a team's
// profile.
type counterRow struct {
	time     time.Duration
	self     uint64
	local    uint64
	remote   uint64
	static   uint64
	immExec  uint64
	reqSent  uint64
	reqHand  uint64
	reqSteal uint64
	totSteal uint64
	locSteal uint64
}

func collectCounters(tm *core.Team, elapsed time.Duration) counterRow {
	p := tm.Profile()
	return counterRow{
		time:     elapsed,
		self:     p.Sum(prof.CntTasksSelf),
		local:    p.Sum(prof.CntTasksLocal),
		remote:   p.Sum(prof.CntTasksRemote),
		static:   p.Sum(prof.CntStaticPush),
		immExec:  p.Sum(prof.CntImmExec),
		reqSent:  p.Sum(prof.CntReqSent),
		reqHand:  p.Sum(prof.CntReqHandled),
		reqSteal: p.Sum(prof.CntReqHasSteal),
		totSteal: p.Sum(prof.CntTasksStolen),
		locSteal: p.Sum(prof.CntStolenLocal),
	}
}
