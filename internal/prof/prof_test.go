package prof

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCounters(t *testing.T) {
	p := New(4, false)
	p.Thread(0).Inc(CntTasksSelf)
	p.Thread(0).Add(CntTasksSelf, 2)
	p.Thread(3).Add(CntTasksRemote, 7)
	if got := p.Thread(0).counters[CntTasksSelf]; got != 3 {
		t.Errorf("thread 0 self = %d, want 3", got)
	}
	if got := p.Sum(CntTasksSelf); got != 3 {
		t.Errorf("sum self = %d, want 3", got)
	}
	if got := p.Sum(CntTasksRemote); got != 7 {
		t.Errorf("sum remote = %d, want 7", got)
	}
}

func TestTimelineDisabledIsNoop(t *testing.T) {
	p := New(1, false)
	th := p.Thread(0)
	th.Begin(EvTask)
	th.End(EvTask)
	if len(th.events) != 0 {
		t.Fatal("events recorded while timeline disabled")
	}
}

func TestTimelineBasic(t *testing.T) {
	p := New(1, true)
	th := p.Thread(0)
	th.Begin(EvTask)
	time.Sleep(2 * time.Millisecond)
	th.End(EvTask)
	ev := th.events
	if len(ev) != 1 {
		t.Fatalf("got %d events, want 1", len(ev))
	}
	if ev[0].Ev != EvTask || ev[0].End <= ev[0].Start {
		t.Fatalf("bad record %+v", ev[0])
	}
	tot := totals(th)
	if tot[EvTask] < int64(time.Millisecond) {
		t.Errorf("TASK total %v too small", tot[EvTask])
	}
}

// Nested events must attribute the inner interval to the inner class only.
func TestTimelineNesting(t *testing.T) {
	p := New(1, true)
	th := p.Thread(0)
	th.Begin(EvTaskWait)
	time.Sleep(time.Millisecond)
	th.Begin(EvTask)
	time.Sleep(time.Millisecond)
	th.End(EvTask)
	time.Sleep(time.Millisecond)
	th.End(EvTaskWait)

	tot := totals(th)
	if tot[EvTask] == 0 || tot[EvTaskWait] == 0 {
		t.Fatalf("missing classes: %v", tot)
	}
	// No record may overlap another.
	ev := th.events
	for i := 0; i < len(ev); i++ {
		for j := i + 1; j < len(ev); j++ {
			a, b := ev[i], ev[j]
			if a.Start < b.End && b.Start < a.End {
				t.Fatalf("overlapping records %+v and %+v", a, b)
			}
		}
	}
	// Records are contiguous, so the per-class totals must exactly cover the
	// outer window: TASKWAIT must not also absorb the nested TASK time.
	window := ev[len(ev)-1].End - ev[0].Start
	if got := tot[EvTask] + tot[EvTaskWait]; got != window {
		t.Errorf("totals sum %v != window %v (double counting?)", got, window)
	}
	if tot[EvTaskWait] < int64(time.Millisecond) {
		t.Errorf("TASKWAIT = %v, want >= 1ms", tot[EvTaskWait])
	}
}

// Fragments of one logical event share a span id; distinct events get
// distinct spans.
func TestSpanIdentity(t *testing.T) {
	p := New(1, true)
	th := p.Thread(0)
	th.Begin(EvTask)
	time.Sleep(time.Millisecond)
	th.Begin(EvTaskCreate) // splits the TASK event
	th.End(EvTaskCreate)
	time.Sleep(time.Millisecond)
	th.End(EvTask)
	th.Begin(EvTask) // a second logical task
	time.Sleep(time.Millisecond)
	th.End(EvTask)

	spans := map[int64]int{}
	for _, r := range th.events {
		if r.Ev == EvTask {
			spans[r.Span]++
		}
	}
	if len(spans) != 2 {
		t.Fatalf("expected 2 logical TASK spans, got %d (%v)", len(spans), spans)
	}
	fragmented := false
	for _, n := range spans {
		if n == 2 {
			fragmented = true
		}
	}
	if !fragmented {
		t.Fatal("nested event did not fragment the outer span into 2 records")
	}
}

func TestEndMismatchPanics(t *testing.T) {
	p := New(1, true)
	th := p.Thread(0)
	th.Begin(EvTask)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched End did not panic")
		}
	}()
	th.End(EvBarrier)
}

func TestEndWithoutBeginPanics(t *testing.T) {
	p := New(1, true)
	defer func() {
		if recover() == nil {
			t.Fatal("End without Begin did not panic")
		}
	}()
	p.Thread(0).End(EvTask)
}

func TestDumpLoadRoundTrip(t *testing.T) {
	p := New(2, true)
	p.Thread(0).Begin(EvTask)
	p.Thread(0).End(EvTask)
	p.Thread(1).Add(CntReqSent, 9)

	var buf bytes.Buffer
	if err := p.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers != 2 || !s.Timeline {
		t.Fatalf("bad snapshot header %+v", s)
	}
	if s.Counters[1][CntReqSent] != 9 {
		t.Errorf("counter lost in round trip")
	}
	if len(s.Events[0]) != 1 {
		t.Errorf("events lost in round trip")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(strings.NewReader("{nope")); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
	if _, err := Load(strings.NewReader(`{"workers":3,"counters":[]}`)); err == nil {
		t.Fatal("inconsistent snapshot accepted")
	}
}

func TestRenderSummaries(t *testing.T) {
	p := New(2, true)
	th := p.Thread(0)
	th.Begin(EvTask)
	time.Sleep(time.Millisecond)
	th.End(EvTask)
	th.Add(CntTasksCreated, 10)
	th.Add(CntTasksExecuted, 8)
	p.Thread(1).Add(CntTasksExecuted, 2)

	s := p.Snapshot()
	var tl, tc bytes.Buffer
	if err := s.TimelineSummary(&tl, 40); err != nil {
		t.Fatal(err)
	}
	if err := s.TaskCountSummary(&tc, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl.String(), "T000") || !strings.Contains(tl.String(), "T001") {
		t.Errorf("timeline summary missing thread rows:\n%s", tl.String())
	}
	if !strings.Contains(tc.String(), "tasks executed=10") {
		t.Errorf("task count summary wrong total:\n%s", tc.String())
	}
}

func TestImbalanceRatio(t *testing.T) {
	p := New(4, false)
	// Perfect balance.
	for i := 0; i < 4; i++ {
		p.Thread(i).Add(CntTasksExecuted, 5)
	}
	if got := p.Snapshot().ImbalanceRatio(); got != 1 {
		t.Errorf("balanced ratio = %v, want 1", got)
	}
	// All work on one thread: max/mean = 20/5 = 4.
	q := New(4, false)
	q.Thread(0).Add(CntTasksExecuted, 20)
	if got := q.Snapshot().ImbalanceRatio(); got != 4 {
		t.Errorf("skewed ratio = %v, want 4", got)
	}
	if got := New(4, false).Snapshot().ImbalanceRatio(); got != 0 {
		t.Errorf("empty ratio = %v, want 0", got)
	}
}

func TestUtilizationRatio(t *testing.T) {
	p := New(2, true)
	th := p.Thread(0)
	th.Begin(EvTask)
	time.Sleep(time.Millisecond)
	th.End(EvTask)
	// Thread 1 idle: ratio min/max = 0.
	if got := p.Snapshot().UtilizationRatio(); got != 0 {
		t.Errorf("ratio = %v, want 0 with one idle thread", got)
	}
	if got := New(1, true).Snapshot().UtilizationRatio(); got != 1 {
		t.Errorf("empty ratio = %v, want 1", got)
	}
}

func TestNames(t *testing.T) {
	if EvTaskCreate.String() != "GOMP_TASK" {
		t.Error("event name mismatch")
	}
	if CntImmExec.String() != "NTASKS_IMM_EXEC" {
		t.Error("counter name mismatch")
	}
	if Event(200).String() == "" || Counter(200).String() == "" {
		t.Error("out-of-range names must render")
	}
	// The name table is positional: a counter added without its name
	// would shift or blank the ones after it.
	if CntIdlePolls.String() != "NIDLE_POLLS" || CntBellWakes.String() != "NBELL_WAKES" {
		t.Errorf("idle counter names: %s … %s", CntIdlePolls, CntBellWakes)
	}
	for c := Counter(0); c < NumCounters; c++ {
		if c.String() == "" {
			t.Errorf("counter %d has no name", int(c))
		}
	}
}

// A malformed dump is a bad file, not a crash: Load rejects it, or what it
// accepts renders cleanly through every renderer profview and whatif call.
func TestLoadMalformedDumps(t *testing.T) {
	row := "[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]"
	for _, tc := range []struct {
		name, dump string
		wantErr    bool
	}{
		{"counters only", `{"workers":2,"counters":[` + row + `,` + row + `]}`, false},
		{"null events", `{"workers":1,"counters":[` + row + `],"events":null}`, false},
		{"events per worker", `{"workers":1,"timeline":true,"counters":[` + row + `],"events":[[{"ev":4,"start":1,"end":9,"span":1}]]}`, false},
		{"short events", `{"workers":2,"counters":[` + row + `,` + row + `],"events":[[]]}`, true},
		{"long events", `{"workers":1,"counters":[` + row + `],"events":[[],[]]}`, true},
		{"event class 200", `{"workers":1,"counters":[` + row + `],"events":[[{"ev":200,"start":1,"end":2,"span":1}]]}`, true},
		{"short counters", `{"workers":2,"counters":[` + row + `]}`, true},
		{"truncated", `{"workers":2,"counters":[` + row, true},
		{"empty", ``, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Load(strings.NewReader(tc.dump))
			if (err != nil) != tc.wantErr {
				t.Fatalf("Load error %v, want error %v", err, tc.wantErr)
			}
			if err != nil {
				return
			}
			var out bytes.Buffer
			for _, render := range []func() error{
				func() error { return s.TimelineSummary(&out, 40) },
				func() error { return s.TaskCountSummary(&out, 40) },
				func() error { return s.AdmissionSummary(&out) },
				func() error { return s.TenantSummary(&out) },
				func() error { return s.ExportTraceEvents(&out) },
			} {
				if err := render(); err != nil {
					t.Fatal(err)
				}
			}
			s.UtilizationRatio()
			s.ImbalanceRatio()
		})
	}
}

// totals sums the time per event class over th's closed records.
func totals(th *Thread) [NumEvents]int64 {
	var out [NumEvents]int64
	for _, r := range th.events {
		out[r.Ev] += r.End - r.Start
	}
	return out
}
