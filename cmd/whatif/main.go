// Command whatif performs trace-driven what-if analysis: record real
// traffic once, then replay it under alternative configurations to find
// the best settings without re-running the application.
//
// The input is a job trace (loadgen -record, or a generated scenario).
// Its arrivals are replayed through xomp pools under alternative
// admission/balancing candidates — block, reject, shed, wfq
// (weighted-fair multi-tenant admission), and (with -shards) elastic —
// and the candidates are compared on completed jobs, jobs/sec,
// interactive p99, and — when the trace carries more than one tenant —
// Jain's fairness index over per-tenant completion fractions, over the
// exact same traffic ("replay the same day's traffic twice").
// Any other file, a profile dump included, is refused.
//
// -scenario skips the file and generates a corpus preset directly.
//
// Usage:
//
//	loadgen -jobs 20 -record day.jsonl
//	whatif -in day.jsonl -workers 4 -reps 2
//	whatif -scenario flash-crowd -workers 2
//	whatif -scenario zipf -workers 6 -shards 2 -speed 2
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
		seed     = flag.Uint64("seed", scenario.GoldenSeed, "scenario generation seed (with -scenario)")
		workers  = flag.Int("workers", 4, "team size for replay")
		shards   = flag.Int("shards", 0, "replay job traces through this many shards (adds an elastic candidate; 0 = one pool)")
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
	if *shards < 0 || (*shards > 0 && *workers%*shards != 0) {
		fatal(fmt.Errorf("-shards %d must divide -workers %d", *shards, *workers))
	}

	if *scenName != "" {
		tr, err := scenario.Generate(*scenName, *seed)
		if err != nil {
			fatal(err)
		}
		jobWhatIf(tr, *workers, *shards, *speed, *reps)
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
	jobWhatIf(tr, *workers, *shards, *speed, *reps)
}

// jobCandidate is one admission/balancing configuration under
// comparison.
type jobCandidate struct {
	name string
	opts replay.Options
}

// jobCandidates builds the comparison set: the four admission policies
// (weighted-fair multi-tenant included) and — sharded with headroom —
// the elastic capacity controller.
func jobCandidates(workers, shards int) []jobCandidate {
	build := func(name string, admit xomp.AdmitPolicy, elastic bool) jobCandidate {
		cfg := xomp.Preset("xgomptb", workers)
		cfg.Admit = admit
		opts := replay.Options{Team: cfg}
		if shards > 1 {
			opts.Shards = shards
			opts.Team.Workers = workers / shards
			if elastic {
				opts.Elastic = xomp.ElasticConfig{Enabled: true, TotalBudget: workers / 2}
			}
		}
		return jobCandidate{name: name, opts: opts}
	}
	cands := []jobCandidate{
		build("block", nil, false),
		build("reject", xomp.RejectWhenFull{}, false),
		build("shed", xomp.DeadlineShed{}, false),
		build("wfq", &xomp.WFQAdmit{}, false),
	}
	// The elastic candidate needs at least one active worker per shard
	// out of the half-capacity budget.
	if shards > 1 && workers/2 >= shards {
		cands = append(cands, build("elastic", nil, true))
	}
	return cands
}

// jobResult aggregates one candidate's replays.
type jobResult struct {
	cand       jobCandidate
	completed  uint64
	jobsPerSec float64
	refused    uint64 // rejected + shed + expired, all classes
	interP99   time.Duration
	fairness   float64 // mean Jain index over per-tenant completion fractions; 0 = single-tenant trace
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

// jobWhatIf replays tr through every candidate reps times and ranks
// them: most completed jobs first, interactive p99 breaking ties — the
// order a latency-contracted service would pick.
func jobWhatIf(tr *replay.JobTrace, workers, shards int, speed float64, reps int) {
	fmt.Printf("trace: %s, %d jobs over %v\n", tr.Name, len(tr.Jobs), tr.Span().Round(time.Millisecond))
	cands := jobCandidates(workers, shards)
	results := make([]jobResult, 0, len(cands))
	for _, c := range cands {
		c.opts.Speed = speed
		agg := jobResult{cand: c}
		for rep := 0; rep < reps; rep++ {
			res, err := replay.ReplayJobs(tr, c.opts)
			if err != nil {
				fatal(fmt.Errorf("candidate %s: %w", c.name, err))
			}
			agg.completed += res.Completed
			agg.jobsPerSec += res.JobsPerSec
			for cl := range res.PerClass {
				pc := res.PerClass[cl]
				agg.refused += pc.Rejected + pc.Shed + pc.Expired
			}
			agg.fairness += tenantFairness(res)
			p99 := res.PerClass[load.ClassInteractive].P99
			// Keep the best interactive p99 across reps: the steadiest
			// view of what the candidate can deliver.
			if rep == 0 || (p99 > 0 && p99 < agg.interP99) {
				agg.interP99 = p99
			}
		}
		agg.completed /= uint64(reps)
		agg.jobsPerSec /= float64(reps)
		agg.refused /= uint64(reps)
		agg.fairness /= float64(reps)
		results = append(results, agg)
	}
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].completed != results[j].completed {
			return results[i].completed > results[j].completed
		}
		return results[i].interP99 < results[j].interP99
	})
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
