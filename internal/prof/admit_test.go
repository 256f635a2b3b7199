package prof

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/load"
)

// The admission-edge state: class gauges, outcome counters, latency
// rings, the job-time EWMA gauge, and the event ring — all the way
// through a Dump/Load round trip and the Chrome-trace export.
func TestAdmissionState(t *testing.T) {
	p := New(2, false)
	var tn load.Tenant
	ref := p.Tenant(tn)
	p.Queued(load.ClassBatch, ref, 2)
	p.Queued(load.ClassBatch, ref, -1)
	p.Queued(load.ClassBackground, ref, 5)
	if got := p.ClassQueued(0); got != 1 {
		t.Fatalf("class 0 gauge %d, want 1", got)
	}
	p.Admitted(load.ClassBatch, tn, 1, 1000)
	p.Admitted(load.ClassBatch, tn, 1, 3000)
	p.Refused(load.ClassInteractive, tn, AdmitRejected, false)
	p.Refused(load.ClassBackground, tn, AdmitShed, false)
	if got := p.AdmitCount(0, AdmitAdmitted); got != 2 {
		t.Fatalf("ADMIT count %d, want 2", got)
	}

	p.JobDone(JobRecord{ID: 1, Start: 0, End: 1_000_000, Class: 1}, ref)
	if got := p.JobTimeNS(); got != 1_000_000 {
		t.Fatalf("JobTimeNS after first job %v, want 1e6", got)
	}
	p.JobDone(JobRecord{ID: 2, Start: 0, End: 2_000_000, Class: 1}, ref)
	got := p.JobTimeNS()
	if got <= 1_000_000 || got >= 2_000_000 {
		t.Fatalf("JobTimeNS EWMA %v outside (1e6, 2e6)", got)
	}

	snap := p.Snapshot()
	if snap.ClassQueued[0] != 1 || snap.ClassQueued[2] != 5 {
		t.Fatalf("snapshot class gauges %v", snap.ClassQueued)
	}
	if snap.AdmitCounts[1][AdmitRejected] != 1 || snap.AdmitCounts[2][AdmitShed] != 1 {
		t.Fatalf("snapshot admit counts %v", snap.AdmitCounts)
	}
	if len(snap.AdmitLatencies[0]) != 2 {
		t.Fatalf("snapshot latencies %v", snap.AdmitLatencies)
	}
	if len(snap.AdmitEvents) != 2 || snap.AdmitEvents[1].Outcome != AdmitShed || snap.AdmitEvents[1].Class != 2 {
		t.Fatalf("snapshot admit events %v", snap.AdmitEvents)
	}
	if snap.SigJobNS != got {
		t.Fatalf("snapshot SigJobNS %v, want %v", snap.SigJobNS, got)
	}

	var buf bytes.Buffer
	if err := p.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.AdmitCounts != snap.AdmitCounts || back.ClassQueued != snap.ClassQueued {
		t.Fatalf("round trip lost admission state: %v vs %v", back.AdmitCounts, snap.AdmitCounts)
	}
	if len(back.Jobs) != 2 || back.Jobs[1].Class != 1 {
		t.Fatalf("round trip job classes: %+v", back.Jobs)
	}

	var trace bytes.Buffer
	if err := snap.ExportTraceEvents(&trace); err != nil {
		t.Fatal(err)
	}
	out := trace.String()
	if !strings.Contains(out, "ADMIT_SHED") || !strings.Contains(out, `"class":"background"`) {
		t.Fatalf("trace export missing admission instant:\n%s", out)
	}

	var summary bytes.Buffer
	if err := snap.AdmissionSummary(&summary); err != nil {
		t.Fatal(err)
	}
	text := summary.String()
	if !strings.Contains(text, "interactive") || !strings.Contains(text, "Admission Summary") {
		t.Fatalf("admission summary:\n%s", text)
	}
	// A snapshot with no admission traffic renders nothing.
	var empty bytes.Buffer
	if err := (Snapshot{Workers: 1}).AdmissionSummary(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatalf("empty snapshot rendered %q", empty.String())
	}
}

func TestAdmitNames(t *testing.T) {
	if AdmitShed.String() != "SHED" || AdmitOutcome(99).String() == "" {
		t.Fatal("outcome names")
	}
}

// The latency ring stays bounded.
func TestAdmitLatencyRingBounded(t *testing.T) {
	p := New(1, false)
	for i := 0; i < MaxAdmitLatencies+100; i++ {
		p.Admitted(load.ClassInteractive, load.Tenant{}, 1, int64(i))
	}
	lat := p.AdmitLatencies(1)
	if len(lat) != MaxAdmitLatencies {
		t.Fatalf("ring length %d, want %d", len(lat), MaxAdmitLatencies)
	}
}
