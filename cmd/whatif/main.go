// Command whatif performs trace-driven what-if analysis: record real
// traffic once, then replay it under alternative configurations to find
// the best settings without re-running the application.
//
// The input is a job trace (loadgen -record, or a generated scenario).
// Its arrivals are replayed through xomp pools under alternative
// admission candidates — block, reject, shed and wfq (weighted-fair
// multi-tenant admission) — and the candidates
// are compared on completed jobs, jobs/sec,
// interactive p99, and — when the trace carries more than one tenant —
// Jain's fairness index over per-tenant completion fractions, over the
// exact same traffic ("replay the same day's traffic twice"). The reps
// interleave: each rep replays every candidate once, in reverse order
// on odd reps, so drift on the host spreads over all candidates.
// Any other file, a profile dump included, is refused.
//
// -scenario skips the file and generates a corpus preset directly, from
// the golden corpus's seed.
//
// Usage:
//
//	loadgen -jobs 20 -record day.jsonl
//	whatif -in day.jsonl -workers 4 -reps 2
//	whatif -scenario flash-crowd -workers 2
//	whatif -scenario zipf -workers 6 -speed 2
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/load"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/xomp"
)

func main() {
	var (
		in       = flag.String("in", "", "job trace to replay (loadgen -record)")
		scenName = flag.String("scenario", "", "generate a scenario preset instead of reading -in: "+joinNames())
		workers  = flag.Int("workers", 4, "team size for replay")
		speed    = flag.Float64("speed", 1, "job-trace time compression: arrivals and deadlines run this times faster")
		reps     = flag.Int("reps", 3, "replays per candidate")
	)
	flag.Parse()
	if (*in == "") == (*scenName == "") {
		fmt.Fprintln(os.Stderr, "whatif: exactly one of -in or -scenario is required")
		os.Exit(2)
	}
	if *speed <= 0 {
		fatal(fmt.Errorf("-speed %v must be > 0", *speed))
	}
	if *reps < 1 {
		fatal(fmt.Errorf("-reps %d must be >= 1", *reps))
	}

	if *scenName != "" {
		tr, err := scenario.Generate(*scenName, scenario.GoldenSeed)
		if err != nil {
			fatal(err)
		}
		jobWhatIf(tr, *workers, *speed, *reps)
		return
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	if !replay.IsJobTrace(data) {
		fatal(fmt.Errorf("%s is not a job trace; -in expects a job trace (loadgen -record), not a profile dump", *in))
	}
	tr, err := replay.ReadJobTrace(bytes.NewReader(data))
	if err != nil {
		fatal(err)
	}
	jobWhatIf(tr, *workers, *speed, *reps)
}

// jobCandidate is one admission configuration under comparison.
type jobCandidate struct {
	name string
	opts replay.Options
}

// jobCandidates builds the comparison set: the four admission policies,
// weighted-fair multi-tenant admission included.
func jobCandidates(workers int) []jobCandidate {
	build := func(name string, admit xomp.AdmitPolicy) jobCandidate {
		cfg := xomp.Preset("xgomptb", workers)
		cfg.Admit = admit
		return jobCandidate{name: name, opts: replay.Options{Team: cfg}}
	}
	return []jobCandidate{
		build("block", nil),
		build("reject", xomp.RejectWhenFull{}),
		build("shed", xomp.DeadlineShed{}),
		build("wfq", &xomp.WFQAdmit{}),
	}
}

// jobResult aggregates one candidate's replays.
type jobResult struct {
	cand       jobCandidate
	completed  uint64
	jobsPerSec float64
	refused    uint64        // rejected + shed + expired, all classes
	interP99   time.Duration // median over the reps that completed interactive jobs
	fairness   float64       // mean Jain index over per-tenant completion fractions; 0 = single-tenant trace
}

// tenantFairness is Jain's index over each tenant's completed/submitted
// fraction — 1.0 means every tenant got the same fraction of its demand
// through, regardless of how unequal the demands were. Single-tenant
// traces yield 0 (the column is not meaningful).
func tenantFairness(res replay.JobReplayResult) float64 {
	if len(res.PerTenant) < 2 {
		return 0
	}
	fracs := make([]float64, 0, len(res.PerTenant))
	for _, pt := range res.PerTenant {
		if pt.Submitted > 0 {
			fracs = append(fracs, float64(pt.Completed)/float64(pt.Submitted))
		}
	}
	return stats.Jain(fracs)
}

// aggregate folds one candidate's replays into its row: means of the
// counts and rates, and the median interactive p99 — one unlucky or
// lucky rep cannot decide a ranking the p99 breaks.
func aggregate(c jobCandidate, runs []replay.JobReplayResult) jobResult {
	agg := jobResult{cand: c}
	var p99s stats.Sample
	for _, res := range runs {
		agg.completed += res.Completed
		agg.jobsPerSec += res.JobsPerSec
		for cl := range res.PerClass {
			pc := res.PerClass[cl]
			agg.refused += pc.Rejected + pc.Shed + pc.Expired
		}
		agg.fairness += tenantFairness(res)
		if p99 := res.PerClass[load.ClassInteractive].P99; p99 > 0 {
			p99s.Add(float64(p99))
		}
	}
	n := len(runs)
	agg.completed /= uint64(n)
	agg.jobsPerSec /= float64(n)
	agg.refused /= uint64(n)
	agg.fairness /= float64(n)
	agg.interP99 = time.Duration(p99s.Median())
	return agg
}

// rank orders results the way a latency-contracted service would pick:
// most completed jobs first, interactive p99 breaking ties.
func rank(results []jobResult) {
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].completed != results[j].completed {
			return results[i].completed > results[j].completed
		}
		return results[i].interP99 < results[j].interP99
	})
}

// jobWhatIf replays tr through every candidate reps times, interleaved
// (see the package comment), and prints the ranked comparison.
func jobWhatIf(tr *replay.JobTrace, workers int, speed float64, reps int) {
	fmt.Printf("trace: %s, %d jobs over %v\n", tr.Name, len(tr.Jobs), tr.Span().Round(time.Millisecond))
	cands := jobCandidates(workers)
	runs := make([][]replay.JobReplayResult, len(cands))
	for rep := 0; rep < reps; rep++ {
		for k := range cands {
			i := k
			if rep%2 == 1 {
				i = len(cands) - 1 - k
			}
			c := cands[i]
			c.opts.Speed = speed
			res, err := replay.ReplayJobs(tr, c.opts)
			if err != nil {
				fatal(fmt.Errorf("candidate %s: %w", c.name, err))
			}
			runs[i] = append(runs[i], res)
		}
	}
	results := make([]jobResult, len(cands))
	for i, c := range cands {
		results[i] = aggregate(c, runs[i])
	}
	rank(results)
	fmt.Printf("%-10s %10s %12s %10s %14s %9s\n", "candidate", "completed", "jobs/sec", "refused", "interactive-p99", "fairness")
	for _, r := range results {
		p99 := "-"
		if r.interP99 > 0 {
			p99 = r.interP99.Round(time.Microsecond).String()
		}
		fair := "-"
		if r.fairness > 0 {
			fair = fmt.Sprintf("%.3f", r.fairness)
		}
		fmt.Printf("%-10s %10d %12.1f %10d %14s %9s\n", r.cand.name, r.completed, r.jobsPerSec, r.refused, p99, fair)
	}
	fmt.Printf("\nrecommendation: %s\n", results[0].cand.name)
}

func joinNames() string {
	out := ""
	for i, n := range scenario.Names() {
		if i > 0 {
			out += "|"
		}
		out += n
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "whatif:", err)
	os.Exit(1)
}
