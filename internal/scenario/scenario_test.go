package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/load"
	"repro/internal/replay"
	"repro/xomp"
)

// goldenDir is the checked-in corpus, relative to this package.
const goldenDir = "../../testdata/scenarios"

func render(t *testing.T, tr *replay.JobTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// TestScenarioGenerateDeterministic pins the generator side of the
// determinism contract: the same (name, seed) yields byte-identical
// traces, and the seed actually matters.
func TestScenarioGenerateDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, err := Generate(name, GoldenSeed)
		if err != nil {
			t.Fatalf("Generate(%q): %v", name, err)
		}
		if len(a.Jobs) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		b, err := Generate(name, GoldenSeed)
		if err != nil {
			t.Fatalf("Generate(%q) again: %v", name, err)
		}
		if !bytes.Equal(render(t, a), render(t, b)) {
			t.Errorf("%s: same seed produced different bytes", name)
		}
		c, err := Generate(name, GoldenSeed+1)
		if err != nil {
			t.Fatalf("Generate(%q, seed+1): %v", name, err)
		}
		if bytes.Equal(render(t, a), render(t, c)) {
			t.Errorf("%s: different seeds produced identical traces", name)
		}
	}
	if _, err := Generate("no-such-scenario", 1); err == nil {
		t.Errorf("unknown scenario accepted")
	}
}

// TestScenarioGoldenCorpus regenerates every checked-in golden trace from
// its recorded (name, seed) and requires byte identity — the regression
// gate that keeps the corpus and the generators in lockstep. Regenerate
// with: go run ./cmd/loadgen -scenario <name> -emit <file>.
func TestScenarioGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("golden corpus has %d traces under %s, want at least 2", len(files), goldenDir)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !replay.IsJobTrace(data) {
			t.Errorf("%s: not a job trace", path)
			continue
		}
		tr, err := replay.ReadJobTrace(bytes.NewReader(data))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		name := strings.TrimSuffix(filepath.Base(path), ".jsonl")
		if tr.Name != name {
			t.Errorf("%s: header names scenario %q", path, tr.Name)
		}
		regen, err := Generate(tr.Name, tr.Seed)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if !bytes.Equal(render(t, regen), data) {
			t.Errorf("%s: golden file does not match Generate(%q, %d); regenerate with loadgen -scenario %s -emit %s (the golden seed)",
				path, tr.Name, tr.Seed, tr.Name, path)
		}
	}
}

// TestScenarioReplayTwiceIdenticalCounts is the end-to-end determinism
// check from ISSUE 6: a generated scenario replayed twice through the
// same blocking configuration yields identical per-class admission
// counts. steady is built for this — deadlines generous enough that
// nothing can expire, so every submission admits both times.
func TestScenarioReplayTwiceIdenticalCounts(t *testing.T) {
	tr, err := Generate("steady", GoldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := xomp.Preset("xgomptb", 2)
	cfg.Backlog = 64
	opts := replay.Options{Team: cfg, Speed: 4}
	a, err := replay.ReplayJobs(tr, opts)
	if err != nil {
		t.Fatalf("replay 1: %v", err)
	}
	b, err := replay.ReplayJobs(tr, opts)
	if err != nil {
		t.Fatalf("replay 2: %v", err)
	}
	for c := range a.PerClass {
		pa, pb := a.PerClass[c], b.PerClass[c]
		pa.P50, pa.P99, pb.P50, pb.P99 = 0, 0, 0, 0
		if pa != pb {
			t.Errorf("class %s: counts differ between replays:\n run 1: %+v\n run 2: %+v",
				load.Class(c), pa, pb)
		}
		if pa.Submitted != pa.Admitted {
			t.Errorf("class %s: %d submitted, %d admitted — steady must fully admit under blocking",
				load.Class(c), pa.Submitted, pa.Admitted)
		}
	}
	if a.Completed != uint64(len(tr.Jobs)) {
		t.Errorf("completed %d of %d jobs", a.Completed, len(tr.Jobs))
	}
	// The determinism contract extends below classes: per-tenant counts
	// must match too (latencies zeroed — wall time is not deterministic).
	if len(a.PerTenant) == 0 || len(a.PerTenant) != len(b.PerTenant) {
		t.Fatalf("per-tenant outcomes differ in shape: %d vs %d tenants",
			len(a.PerTenant), len(b.PerTenant))
	}
	for id, ta := range a.PerTenant {
		tb, ok := b.PerTenant[id]
		if !ok {
			t.Errorf("tenant %d: present in run 1 only", id)
			continue
		}
		ta.P50, ta.P99, ta.AdmitP50, ta.AdmitP99 = 0, 0, 0, 0
		tb.P50, tb.P99, tb.AdmitP50, tb.AdmitP99 = 0, 0, 0, 0
		if ta != tb {
			t.Errorf("tenant %d: counts differ between replays:\n run 1: %+v\n run 2: %+v",
				id, ta, tb)
		}
	}
}
