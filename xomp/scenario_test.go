package xomp_test

// Scenario regression tests: replay corpus traces from internal/scenario
// through competing policy configurations and pin the qualitative
// outcomes the policies exist to produce. Every test here answers a
// question ad-hoc benchmarks could not: same traffic, different policy —
// did the policy change the outcome the way the design claims? Selected
// by `go test -run Scenario` (the CI scenario-smoke step). Comparative
// assertions retry a few times: they compare latency distributions of
// two live replays, and a loaded CI box can blur one round.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/xomp"
)

// flashCrowdAttempt replays the flash-crowd trace through block and shed
// admission several times each and reports whether shed bounded typical
// interactive latency below block. The comparison sums interactive p50
// over the replays — the integral statistic: under block the crowd's
// ≈10ms jobs occupy workers whenever the higher classes drain, so the
// *median* interactive job waits behind one, while the few crowd jobs
// that slip past the shed predictor in saturation gaps can move a p99
// but not a median. Summing over replays averages out the single-run
// scheduler noise a 1-CPU host adds to any two live latency runs.
func flashCrowdAttempt(t *testing.T) bool {
	t.Helper()
	const replays = 3
	tr, err := scenario.Generate("flash-crowd", scenario.GoldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	run := func(admit xomp.AdmitPolicy) replay.JobReplayResult {
		cfg := xomp.Preset("xgomptb", 2)
		cfg.Backlog = 16
		cfg.Admit = admit
		res, err := replay.ReplayJobs(tr, replay.Options{Team: cfg})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		return res
	}
	var blockP50, shedP50 time.Duration
	var crowdShed, crowdSubmitted uint64
	for i := 0; i < replays; i++ {
		block := run(nil) // BlockWhenFull is the default
		// Slack 4 against the trace's ≈1ms job-time floor keeps the ETA
		// above the crowd's 3ms deadline even with an empty queue: a
		// saturated predictor sheds the whole window instead of
		// oscillating around the threshold.
		shed := run(xomp.DeadlineShed{Slack: 4})

		// Structural invariants, not subject to timing noise.
		for c := range block.PerClass {
			if n := block.PerClass[c].Shed; n != 0 {
				t.Fatalf("BlockWhenFull shed %d class-%d jobs; it never sheds", n, c)
			}
		}
		bi := block.PerClass[xomp.ClassInteractive]
		si := shed.PerClass[xomp.ClassInteractive]
		if bi.Completed == 0 || si.Completed == 0 {
			t.Fatalf("no interactive completions (block %d, shed %d)", bi.Completed, si.Completed)
		}
		blockP50 += bi.P50
		shedP50 += si.P50
		crowdShed += shed.PerClass[xomp.ClassBackground].Shed
		crowdSubmitted += shed.PerClass[xomp.ClassBackground].Submitted
	}

	// Comparative outcomes: most of the crowd must actually be shed, and
	// shedding it must keep typical interactive latency below the
	// admit-everything runs.
	t.Logf("interactive p50 over %d replays: block %v, shed %v; crowd shed %d of %d",
		replays, (blockP50 / replays).Round(time.Microsecond),
		(shedP50 / replays).Round(time.Microsecond), crowdShed, crowdSubmitted)
	return crowdShed > crowdSubmitted/4 && shedP50 < blockP50
}

// TestScenarioFlashCrowdShedding pins the admission level's reason to
// exist: on the flash-crowd trace, DeadlineShed refuses the doomed crowd
// at the door and typical interactive latency stays below the
// BlockWhenFull replay of the exact same traffic.
func TestScenarioFlashCrowdShedding(t *testing.T) {
	if testing.Short() {
		t.Skip("replays ~200ms traces repeatedly")
	}
	const attempts = 4
	for i := 1; i <= attempts; i++ {
		if flashCrowdAttempt(t) {
			return
		}
		t.Logf("attempt %d/%d inconclusive", i, attempts)
	}
	t.Errorf("DeadlineShed never bounded interactive p50 below BlockWhenFull in %d attempts", attempts)
}

// TestScenarioCorpusReplays replays checked-in golden traces through the
// xgomptb preset — the CI smoke that the corpus files, the trace reader,
// and the replayer agree end to end.
func TestScenarioCorpusReplays(t *testing.T) {
	for _, name := range []string{"steady", "deadline-mix"} {
		path := filepath.Join("..", "testdata", "scenarios", name+".jsonl")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden corpus: %v", err)
		}
		tr, err := replay.ReadJobTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		cfg := xomp.Preset("xgomptb", 2)
		cfg.Backlog = 64
		res, err := replay.ReplayJobs(tr, replay.Options{Team: cfg, Speed: 4})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Completed == 0 {
			t.Errorf("%s: no completions", name)
		}
		t.Logf("%s: %.0f jobs/sec, %d/%d completed", name, res.JobsPerSec, res.Completed, res.Jobs)
	}
}
