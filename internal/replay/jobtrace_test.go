package replay

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/load"
	"repro/xomp"
)

func sampleTrace() *JobTrace {
	return &JobTrace{
		Name: "sample",
		Seed: 7,
		Jobs: []JobEvent{
			{At: 0, Class: int(load.ClassBatch), Size: 100},
			{At: 1500, Class: int(load.ClassInteractive), Size: 40, Deadline: int64(time.Millisecond), Tenant: 3},
			{At: 1500, Class: int(load.ClassBackground), Size: 900, Tenant: 1},
			{At: 9000, App: "fib"},
		},
	}
}

func TestJobTraceRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if !IsJobTrace(buf.Bytes()) {
		t.Errorf("IsJobTrace = false for a serialized job trace")
	}
	got, err := ReadJobTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJobTrace: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}

	// Serialization is deterministic: a second pass yields the same bytes.
	var buf2 bytes.Buffer
	if _, err := tr.WriteTo(&buf2); err != nil {
		t.Fatalf("WriteTo (second): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("WriteTo is not byte-deterministic")
	}
}

func TestIsJobTraceRejectsOtherInputs(t *testing.T) {
	for _, in := range []string{
		"",
		"not json",
		`{"workers": 4, "jobs": []}`, // a profile snapshot header
		`{"jobtrace": "jobtrace/v0", "jobs": 1}`,
	} {
		if IsJobTrace([]byte(in)) {
			t.Errorf("IsJobTrace(%q) = true, want false", in)
		}
	}
}

func TestReadJobTraceValidation(t *testing.T) {
	cases := map[string]string{
		"empty input":     "",
		"bad header":      "{\"x\": 1}\n",
		"count mismatch":  "{\"jobtrace\":\"jobtrace/v1\",\"jobs\":2}\n{\"at\":0}\n",
		"out of order":    "{\"jobtrace\":\"jobtrace/v1\",\"jobs\":2}\n{\"at\":50}\n{\"at\":10}\n",
		"malformed event": "{\"jobtrace\":\"jobtrace/v1\",\"jobs\":1}\nnope\n",
	}
	for name, in := range cases {
		if _, err := ReadJobTrace(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("%s: ReadJobTrace accepted invalid input", name)
		}
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	const per, workers = 20, 8
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec.Record("", 1000+i, int(load.ClassBatch), time.Millisecond, g)
			}
		}(g)
	}
	wg.Wait()
	tr := rec.Trace("recorded")
	if len(tr.Jobs) != per*workers {
		t.Fatalf("recorded %d jobs, want %d", len(tr.Jobs), per*workers)
	}
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].At < tr.Jobs[i-1].At {
			t.Fatalf("trace arrivals out of order at %d", i)
		}
	}
	if tr.Jobs[0].Deadline != int64(time.Millisecond) {
		t.Errorf("deadline not recorded: %d", tr.Jobs[0].Deadline)
	}
}

// replayCounts strips the timing fields out of a replay result so two
// runs of the same trace can be compared on their deterministic part.
func replayCounts(res JobReplayResult) [load.NumClasses]ClassOutcome {
	out := res.PerClass
	for c := range out {
		out[c].P50, out[c].P99 = 0, 0
	}
	return out
}

// TestScenarioReplayDeterministicCounts pins the replayer side of the
// determinism contract: the same trace through the same blocking
// configuration yields identical per-class admission counts, run to run.
func TestScenarioReplayDeterministicCounts(t *testing.T) {
	tr := &JobTrace{Name: "det"}
	for i := 0; i < 60; i++ {
		tr.Jobs = append(tr.Jobs, JobEvent{
			At:     int64(i) * int64(200*time.Microsecond),
			Class:  i % int(load.NumClasses),
			Size:   2000 + 100*i,
			Tenant: i % 4,
		})
	}
	cfg := xomp.Preset("xgomptb", 2)
	cfg.Backlog = 8
	opts := Options{Team: cfg, Speed: 4}
	a, err := ReplayJobs(tr, opts)
	if err != nil {
		t.Fatalf("replay 1: %v", err)
	}
	b, err := ReplayJobs(tr, opts)
	if err != nil {
		t.Fatalf("replay 2: %v", err)
	}
	ca, cb := replayCounts(a), replayCounts(b)
	if ca != cb {
		t.Errorf("replay counts differ:\n run 1: %+v\n run 2: %+v", ca, cb)
	}
	if a.Completed != 60 {
		t.Errorf("completed %d of 60 jobs under blocking admission", a.Completed)
	}
	for c := range ca {
		if ca[c].Submitted != ca[c].Admitted {
			t.Errorf("class %d: %d submitted but %d admitted under BlockWhenFull",
				c, ca[c].Submitted, ca[c].Admitted)
		}
	}
	// Per-tenant counts are part of the same contract: identical run to
	// run once latencies are zeroed, and every tenant fully admitted.
	if len(a.PerTenant) != 4 || len(b.PerTenant) != 4 {
		t.Fatalf("expected 4 tenants, got %d and %d", len(a.PerTenant), len(b.PerTenant))
	}
	for id, ta := range a.PerTenant {
		tb := b.PerTenant[id]
		ta.P50, ta.P99, ta.AdmitP50, ta.AdmitP99 = 0, 0, 0, 0
		tb.P50, tb.P99, tb.AdmitP50, tb.AdmitP99 = 0, 0, 0, 0
		if ta != tb {
			t.Errorf("tenant %d: counts differ:\n run 1: %+v\n run 2: %+v", id, ta, tb)
		}
		if ta.Submitted != 15 || ta.Completed != 15 {
			t.Errorf("tenant %d: submitted %d completed %d, want 15/15",
				id, ta.Submitted, ta.Completed)
		}
	}
}

func TestReplayJobsRejectsBadTraces(t *testing.T) {
	cfg := xomp.Preset("xgomptb", 2)
	if _, err := ReplayJobs(&JobTrace{Name: "empty"}, Options{Team: cfg}); err == nil {
		t.Errorf("empty trace accepted")
	}
	bad := &JobTrace{Name: "bad", Jobs: []JobEvent{{At: 0, Class: 99}}}
	if _, err := ReplayJobs(bad, Options{Team: cfg}); err == nil {
		t.Errorf("out-of-range class accepted")
	}
	unknown := &JobTrace{Name: "app", Jobs: []JobEvent{{At: 0, App: "no-such-app"}}}
	if _, err := ReplayJobs(unknown, Options{Team: cfg}); err == nil {
		t.Errorf("unknown app accepted")
	}
}
