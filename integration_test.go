// End-to-end integration tests across the public API and tooling layers:
// execute a verified workload, capture a profile, replay it for offline
// tuning, and apply the tuned settings.
package repro_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bots"
	"repro/internal/prof"
	"repro/internal/replay"
	"repro/xomp"
)

// The full loop a production user would run: record → analyze → retune.
func TestProfileReplayRetuneLoop(t *testing.T) {
	// 1. Run a real workload with profiling enabled.
	cfg := xomp.Preset("xgomptb", 4)
	cfg.Topology = xomp.SyntheticTopology(4, 2)
	cfg.Profile = true
	team := xomp.MustTeam(cfg)

	app := bots.MustNew("uts", bots.ScaleTest)
	app.RunParallel(team)
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}

	// 2. Dump and reload the profile (the on-disk workflow).
	var dump bytes.Buffer
	if err := team.Profile().Dump(&dump); err != nil {
		t.Fatal(err)
	}
	snap, err := prof.Load(&dump)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Extract a trace and evaluate DLB candidates offline.
	tr, err := replay.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	base := xomp.Preset("xgomptb", 4)
	base.Topology = xomp.SyntheticTopology(4, 2)
	results, err := replay.Evaluate(tr, base, replay.DefaultCandidates(tr, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no candidates evaluated")
	}

	// 4. Apply the winner to a fresh team and re-run the real workload.
	tuned := xomp.Preset("xgomptb", 4)
	tuned.Topology = xomp.SyntheticTopology(4, 2)
	tuned.DLB = results[0].Candidate.DLB
	team2, err := xomp.NewTeam(tuned)
	if err != nil {
		t.Fatal(err)
	}
	app.RunParallel(team2)
	if err := app.Verify(); err != nil {
		t.Fatalf("tuned rerun: %v", err)
	}
}

// Every example-facing construct in one region, on the headline runtime,
// bounded by a watchdog.
func TestKitchenSinkRegion(t *testing.T) {
	team := xomp.MustTeam(xomp.Preset("xgomptb+narp", 4))
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ordered int
		total := 0
		team.Run(func(w *xomp.Worker) {
			w.TaskGroup(func(w *xomp.Worker) {
				w.ForRange(300, 16, func(w *xomp.Worker, lo, hi int) {
					for i := lo; i < hi; i++ {
						w.Spawn(func(*xomp.Worker) {})
					}
				})
				for i := 0; i < 20; i++ {
					w.SpawnDeps(func(*xomp.Worker) { ordered++ }, xomp.InOut(&ordered))
				}
			})
			total = ordered
		})
		if total != 20 {
			panic("taskgroup returned before dependence chain finished")
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("kitchen-sink region hung")
	}
}
