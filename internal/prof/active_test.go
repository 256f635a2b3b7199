package prof

import (
	"bytes"
	"testing"
)

// The NWORKERS_ACTIVE gauge starts at the worker count, follows SetActive
// transitions, and survives a Dump/Load round trip.
func TestWorkersActiveGauge(t *testing.T) {
	p := New(8, false)
	if got := p.WorkersActive(); got != 8 {
		t.Fatalf("initial NWORKERS_ACTIVE = %d, want 8", got)
	}
	p.SetWorkersActive(3)
	if got := p.WorkersActive(); got != 3 {
		t.Fatalf("NWORKERS_ACTIVE = %d, want 3", got)
	}
	var buf bytes.Buffer
	if err := p.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.WorkersActive != 3 {
		t.Fatalf("snapshot NWORKERS_ACTIVE = %d, want 3", s.WorkersActive)
	}
}

// PARK is a first-class timeline event: named, nestable under the open
// stack like every other class, and rendered by the summaries.
func TestParkTimelineEvent(t *testing.T) {
	if EvPark.String() != "PARK" {
		t.Fatalf("EvPark = %q, want PARK", EvPark.String())
	}
	p := New(1, true)
	th := p.Thread(0)
	th.Begin(EvPark)
	th.End(EvPark)
	recs := th.events
	if len(recs) != 1 || recs[0].Ev != EvPark {
		t.Fatalf("events = %+v, want one PARK record", recs)
	}
	var buf bytes.Buffer
	if err := p.Snapshot().TimelineSummary(&buf, 20); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("PARK")) {
		t.Fatalf("timeline summary legend lacks PARK:\n%s", buf.String())
	}
}
