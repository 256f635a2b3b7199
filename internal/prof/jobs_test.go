package prof

import (
	"testing"

	"repro/internal/load"
)

func TestJobRecordBasics(t *testing.T) {
	p := New(2, false)
	if p.Now() < 0 {
		t.Fatal("Now went backwards")
	}
	p.JobDone(JobRecord{ID: 1, Worker: 0, Submit: 10, Start: 30, End: 90}, p.Tenant(load.Tenant{}))
	jobs := p.Jobs()
	if len(jobs) != 1 || p.JobsTotal() != 1 {
		t.Fatalf("jobs=%d total=%d", len(jobs), p.JobsTotal())
	}
	if d := jobs[0].QueueDelay(); d != 20 {
		t.Fatalf("QueueDelay = %v", d)
	}
	if d := jobs[0].RunTime(); d != 60 {
		t.Fatalf("RunTime = %v", d)
	}
	snap := p.Snapshot()
	if len(snap.Jobs) != 1 {
		t.Fatalf("snapshot jobs = %d", len(snap.Jobs))
	}
}

// The job log must stay bounded under service-lifetime load: a ring of the
// most recent MaxJobRecords completions, with a lifetime total alongside.
func TestJobRecordRingEviction(t *testing.T) {
	p := New(1, false)
	const extra = 100
	for i := 0; i < MaxJobRecords+extra; i++ {
		p.JobDone(JobRecord{ID: int64(i)}, p.Tenant(load.Tenant{}))
	}
	jobs := p.Jobs()
	if len(jobs) != MaxJobRecords {
		t.Fatalf("retained %d records, want %d", len(jobs), MaxJobRecords)
	}
	if got := p.JobsTotal(); got != MaxJobRecords+extra {
		t.Fatalf("JobsTotal = %d, want %d", got, MaxJobRecords+extra)
	}
	// Oldest retained record is the first not evicted; order is preserved.
	if jobs[0].ID != extra {
		t.Fatalf("oldest retained ID = %d, want %d", jobs[0].ID, extra)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].ID != jobs[i-1].ID+1 {
			t.Fatalf("ring order broken at %d: %d after %d", i, jobs[i].ID, jobs[i-1].ID)
		}
	}
}
