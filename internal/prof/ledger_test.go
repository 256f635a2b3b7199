package prof

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/load"
)

// The ledger's invariants under concurrent writers: the five event calls
// keep the total, class and tenant views of the same events equal, and
// every ring keeps min(events, bound) entries and counts all of them. One
// tenant id first appears mid-run, so slot creation races the events.
func TestLedgerHammer(t *testing.T) {
	const (
		writers = 8
		tenants = 6
		late    = tenants - 1 // unseen by the first half of every writer's run
	)
	events := 6000
	if testing.Short() {
		events = 1000
	}
	p := New(2, false)
	var (
		wg                                  sync.WaitGroup
		mu                                  sync.Mutex
		queued, admitted, refused, jobs     int64
		admitCalls, migratedIn, migratedOut int64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w) + 1))
			var q, a, r, j, ac, mi, mo int64
			for i := 0; i < events; i++ {
				ids := late
				if i >= events/2 {
					ids = tenants
				}
				c := load.Class(rnd.Intn(int(load.NumClasses)))
				tn := load.Tenant{ID: rnd.Intn(ids), Weight: 2}
				switch rnd.Intn(6) {
				case 0:
					n := int64(1 + rnd.Intn(4))
					p.Queued(c, tn, n)
					q += n
				case 1:
					p.Queued(c, tn, -1)
					q--
				case 2:
					n := 1 + rnd.Intn(4)
					p.Admitted(c, tn, n, int64(w)<<32|int64(i))
					a += int64(n)
					ac++
				case 3:
					rollback := rnd.Intn(2) == 0
					p.Refused(c, tn, AdmitOutcome(1+rnd.Intn(int(NumAdmitOutcomes)-1)), rollback)
					r++
					if rollback {
						q--
					}
				case 4:
					p.JobDone(JobRecord{ID: int64(w)<<32 | int64(i), Class: int(c), Tenant: tn.ID, Start: 1, End: 2})
					j++
				case 5:
					dir := int64(1 - 2*rnd.Intn(2))
					p.Migrated(c, tn, dir)
					q += dir
					if dir > 0 {
						mi++
					} else {
						mo++
					}
				}
			}
			mu.Lock()
			queued, admitted, refused, jobs = queued+q, admitted+a, refused+r, jobs+j
			admitCalls, migratedIn, migratedOut = admitCalls+ac, migratedIn+mi, migratedOut+mo
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	s := p.Snapshot()
	var classQ, tenantQ int64
	var classN, tenantN [NumAdmitOutcomes]uint64
	var classLat, tenantLat, completed uint64
	for c := range s.ClassQueued {
		classQ += s.ClassQueued[c]
		for o, n := range s.AdmitCounts[c] {
			classN[o] += n
		}
		classLat += checkRing(t, "class latencies", &p.classes[c].lat, MaxAdmitLatencies, s.AdmitLatencies[c])
	}
	if len(s.Tenants) != tenants {
		t.Fatalf("%d tenant slots, want %d", len(s.Tenants), tenants)
	}
	for id, tc := range s.Tenants {
		tenantQ += tc.Queued
		for o, n := range tc.Counts {
			tenantN[o] += n
		}
		tenantLat += checkRing(t, "tenant latencies", &(*p.tenants.Load())[id].lat, MaxTenantLatencies, tc.Latencies)
		completed += tc.Completed
		if tc.Weight != 2 && tc.Weight != 1 {
			t.Fatalf("tenant weight %v, want the observed 2 (or the default 1)", tc.Weight)
		}
	}
	if s.QueueDepth != queued || classQ != queued || tenantQ != queued {
		t.Fatalf("queued: total %d, Σclass %d, Σtenant %d, issued %d", s.QueueDepth, classQ, tenantQ, queued)
	}
	if classN != tenantN {
		t.Fatalf("outcome counters: Σclass %v, Σtenant %v", classN, tenantN)
	}
	var refusedN uint64
	for _, n := range classN[1:] {
		refusedN += n
	}
	if classN[AdmitAdmitted] != uint64(admitted) || refusedN != uint64(refused) {
		t.Fatalf("outcome counters %v, issued %d admitted + %d refused", classN, admitted, refused)
	}
	if classLat != uint64(admitCalls) || tenantLat != uint64(admitCalls) {
		t.Fatalf("latency ring totals: Σclass %d, Σtenant %d, Admitted calls %d", classLat, tenantLat, admitCalls)
	}
	if got := checkRing(t, "admit events", &p.admitEvents, MaxAdmitEvents, nil); got != uint64(refused) {
		t.Fatalf("admit event total %d, want %d", got, refused)
	}
	ids := make([]int64, len(s.Jobs))
	for i, r := range s.Jobs {
		ids[i] = r.ID
	}
	if got := checkRing(t, "job log", &p.jobs, MaxJobRecords, ids); got != uint64(jobs) || completed != uint64(jobs) {
		t.Fatalf("jobs: total %d, Σtenant completed %d, issued %d", got, completed, jobs)
	}
	if s.JobsMigratedIn != uint64(migratedIn) || s.JobsMigratedOut != uint64(migratedOut) {
		t.Fatalf("migrated in/out %d/%d, issued %d/%d", s.JobsMigratedIn, s.JobsMigratedOut, migratedIn, migratedOut)
	}
}

// checkRing asserts r retains min(total, bound) entries and, when the
// entries' writer<<32|sequence stamps are given, that each writer's stamps
// appear in the order it issued them. It returns r's lifetime total.
func checkRing[T any](t *testing.T, name string, r *Ring[T], bound int, stamps []int64) uint64 {
	t.Helper()
	total := r.Total()
	if got := uint64(len(r.Snapshot())); got != min(total, uint64(bound)) {
		t.Fatalf("%s: %d entries retained of %d, bound %d", name, got, total, bound)
	}
	last := map[int64]int64{}
	for _, v := range stamps {
		if prev, ok := last[v>>32]; ok && v <= prev {
			t.Fatalf("%s: writer %d's entry %d retained after its entry %d", name, v>>32, v&(1<<32-1), prev&(1<<32-1))
		}
		last[v>>32] = v
	}
	return total
}

// Past MaxTenants distinct ids the rest are served but not individually
// accounted; the class and total views still count them.
func TestTenantOverflow(t *testing.T) {
	p := New(1, false)
	for id := 0; id < MaxTenants+3; id++ {
		p.Queued(load.ClassBatch, load.Tenant{ID: id}, 1)
	}
	if got := len(p.Snapshot().Tenants); got != MaxTenants {
		t.Fatalf("%d tenant slots, want the bound %d", got, MaxTenants)
	}
	if p.QueueDepth() != MaxTenants+3 || p.ClassQueued(0) != MaxTenants+3 || p.TenantQueued(MaxTenants+1) != 0 {
		t.Fatalf("total %d, class %d, unaccounted tenant %d", p.QueueDepth(), p.ClassQueued(0), p.TenantQueued(MaxTenants+1))
	}
}

// goldenScript is the fixed event sequence behind testdata/
// golden_snapshot.json. The fixture was written by the commit before the
// ledger was rebuilt (dd48c90), from the same sequence spelled in that
// commit's per-feature methods, so a byte-identical marshal here is the
// proof old dumps and new dumps are one format.
func goldenScript(p *Profile) {
	const batch, inter, bg = load.ClassBatch, load.ClassInteractive, load.ClassBackground
	t1, t2 := load.Tenant{ID: 1, Weight: 2}, load.Tenant{ID: 2}
	t3, t4 := load.Tenant{ID: 3, Weight: 1}, load.Tenant{ID: 4, Weight: 0.5}
	p.Thread(0).Add(CntTasksCreated, 5)
	p.Thread(0).Add(CntTasksExecuted, 4)
	p.Thread(1).Add(CntTasksExecuted, 1)
	p.Thread(1).Inc(CntJobsAdopted)
	p.Queued(batch, t1, 3)
	p.Admitted(batch, t1, 3, 1500)
	p.Queued(inter, t2, 1)
	p.Admitted(inter, t2, 1, 700)
	p.Refused(bg, t3, AdmitShed, false)
	p.Refused(batch, t1, AdmitExpired, false)
	p.Queued(bg, t3, 1)
	p.Refused(bg, t3, AdmitRejected, true)
	p.Queued(bg, t3, 2)
	p.Admitted(bg, t3, 2, 90)
	p.Queued(batch, t1, -1)
	p.Queued(inter, t2, -1)
	p.Migrated(bg, t3, -1)
	p.Migrated(bg, t4, 1)
	p.JobDone(JobRecord{ID: 1, Worker: 0, Submit: 10, Start: 30, End: 1030, Class: 0, Tenant: 1})
	p.JobDone(JobRecord{ID: 2, Worker: 1, Submit: 20, Start: 40, End: 2040, Class: 1, Tenant: 2, Panicked: true})
	p.JobDone(JobRecord{ID: 3, Worker: 1, Submit: 50, Start: 60, End: 60, Class: 2, Tenant: 4, Migrated: true})
	p.SetLoadSignals(1234.5, 100, 2.5, 0.25)
	p.SetWorkersActive(1)
	p.RecordPolicySwitch(PolicySwitch{At: 77, From: "a", To: "fine: b"})
}

func TestGoldenSnapshot(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	p := New(2, false)
	goldenScript(p)
	s := p.Snapshot()
	// Refused stamps its events with the profile's own clock; the fixture
	// carries zeros there.
	for i := range s.AdmitEvents {
		s.AdmitEvents[i].At = 0
	}
	var got bytes.Buffer
	if err := json.NewEncoder(&got).Encode(s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("snapshot differs from the parent-generated fixture\n got: %s\nwant: %s", got.Bytes(), want)
	}
	// And the fixture, being an old dump, still loads and renders.
	back, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := back.AdmissionSummary(&out); err != nil {
		t.Fatal(err)
	}
	if err := back.TenantSummary(&out); err != nil {
		t.Fatal(err)
	}
}

// Ring is the one bounded log; its wrap and snapshot order are proved
// here once, for every user.
func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name        string
		bound, adds int
		want        []int
	}{
		{"empty", 4, 0, []int{}},
		{"below bound", 4, 3, []int{0, 1, 2}},
		{"exactly full", 4, 4, []int{0, 1, 2, 3}},
		{"one past", 4, 5, []int{1, 2, 3, 4}},
		{"seam mid-buffer", 4, 6, []int{2, 3, 4, 5}},
		{"wrapped twice", 4, 9, []int{5, 6, 7, 8}},
		{"bound one", 1, 3, []int{2}},
	} {
		r := NewRing[int](tc.bound)
		for i := 0; i < tc.adds; i++ {
			r.Add(i)
		}
		if got := r.Snapshot(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: snapshot %v, want %v", tc.name, got, tc.want)
		}
		if got := r.Total(); got != uint64(tc.adds) {
			t.Errorf("%s: total %d, want %d", tc.name, got, tc.adds)
		}
	}
	// A snapshot is a copy: later adds do not show through it.
	r := NewRing[int](2)
	r.Add(1)
	snap := r.Snapshot()
	r.Add(2)
	r.Add(3)
	if !slices.Equal(snap, []int{1}) {
		t.Errorf("snapshot aliased the ring: %v", snap)
	}
}
