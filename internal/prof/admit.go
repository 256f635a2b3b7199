package prof

// The admission ledger: who is queued, how each submission left the edge,
// and how long admission took — per priority class and per tenant, kept in
// step with the team-wide NJOBS_QUEUED gauge by the five event calls below
// (Queued, Migrated, Admitted, Refused, JobDone). The runtime makes exactly
// one of them per accounting event, so "the class gauges sum to the total,
// and so do the tenant gauges" holds by construction rather than by every
// call site remembering three adds.

import (
	"fmt"
	"io"
	"maps"
	"sort"

	"repro/internal/load"
)

// AdmitOutcome classifies how one submission left the admission edge.
type AdmitOutcome int

const (
	// AdmitAdmitted: the job entered its class queue.
	AdmitAdmitted AdmitOutcome = iota
	// AdmitRejected: the class queue was full under a non-blocking policy
	// (ErrBacklogFull).
	AdmitRejected
	// AdmitShed: the admission policy dropped the job (ErrShed).
	AdmitShed
	// AdmitCancelled: the submitter's context cancelled the wait.
	AdmitCancelled
	// AdmitExpired: the submission's deadline expired before admission
	// (ErrDeadlineExceeded), at submit or during the wait.
	AdmitExpired
	// NumAdmitOutcomes is the number of admission outcomes.
	NumAdmitOutcomes
)

var admitOutcomeNames = [NumAdmitOutcomes]string{"ADMIT", "REJECT", "SHED", "CANCEL", "EXPIRE"}

// String returns the outcome's counter name.
func (o AdmitOutcome) String() string {
	if o >= 0 && int(o) < len(admitOutcomeNames) {
		return admitOutcomeNames[o]
	}
	return fmt.Sprintf("OUTCOME(%d)", int(o))
}

// AdmitEvent records one non-admission at the admission edge (reject,
// shed, cancel, expire) for the Chrome-trace export: saturation episodes
// appear as bursts of these instants on the admission row. Admissions are
// not recorded as events (they are the common case and would swamp the
// ring); their counts and latencies live in the per-class counters.
type AdmitEvent struct {
	At      int64        `json:"at"` // ns since profile base
	Class   int          `json:"class"`
	Outcome AdmitOutcome `json:"outcome"`
}

const (
	// MaxAdmitEvents bounds the retained admission-event ring.
	MaxAdmitEvents = 4096
	// MaxAdmitLatencies bounds the per-class admission-latency ring.
	MaxAdmitLatencies = 4096
	// MaxTenants bounds the per-tenant accounting slots a profile will
	// allocate; traffic from tenants beyond the bound is still served,
	// just not individually accounted.
	MaxTenants = 1024
	// MaxTenantLatencies bounds each tenant's admission-latency ring.
	MaxTenantLatencies = 1024
)

// admitSlot is the admission ledger of one key — a priority class or a
// tenant: its slice of NJOBS_QUEUED (submitters blocked at the edge
// included), the per-outcome counters, and a bounded ring of admission
// latencies. Writers are submitters, adopting workers and the migration
// balancer, so it is all atomics and a ring lock of its own: concurrent
// submitters in different classes or tenants share no coordination point.
// The tail pad keeps the size a multiple of the cache line, so in the
// per-class array every slot's gauge starts a line (falseshare checks it).
type admitSlot struct {
	queued paddedGauge
	counts [NumAdmitOutcomes]counter
	lat    Ring[int64]
	_      [4]uint64
}

func (s *admitSlot) admitted(n int, latNS int64) {
	s.counts[AdmitAdmitted].add(n)
	s.lat.Add(latNS)
}

// outcomes returns the per-outcome counter row.
func (s *admitSlot) outcomes() (out [NumAdmitOutcomes]uint64) {
	for o := range out {
		out[o] = s.counts[o].load()
	}
	return out
}

// read returns the slot's state in its Snapshot form.
func (s *admitSlot) read() (queued int64, counts [NumAdmitOutcomes]uint64, lat []int64) {
	return s.queued.load(), s.outcomes(), s.lat.Snapshot()
}

// tenantSlot is one tenant's ledger plus the two things only tenants have:
// the fair-share weight last seen at the edge (display state, not policy
// input) and the completed-job count.
type tenantSlot struct {
	admitSlot
	weight    paddedFloat
	completed counter
}

func newTenantSlot() *tenantSlot {
	t := &tenantSlot{}
	t.lat = NewRing[int64](MaxTenantLatencies)
	t.weight.set(1)
	return t
}

// seen returns tenant id's slot, nil when no event ever named it. Tenant
// ids are an open set, so unlike the fixed per-class array the slots live
// in a bounded map, read through one atomic load of its current snapshot.
func (p *Profile) seen(id int) *tenantSlot { return (*p.tenants.Load())[id] }

// tenant returns tenant id's slot for an event to write, allocating it on
// first sight. Once MaxTenants distinct ids exist the rest share one
// overflow slot no reader reports, so events never branch on the bound.
func (p *Profile) tenant(id int) *tenantSlot {
	if t := p.seen(id); t != nil {
		return t
	}
	p.tenantMu.Lock()
	defer p.tenantMu.Unlock()
	old := *p.tenants.Load()
	if t := old[id]; t != nil {
		return t
	}
	if len(old) >= MaxTenants {
		return p.overflow
	}
	t := newTenantSlot()
	next := maps.Clone(old)
	next[id] = t
	p.tenants.Store(&next)
	return t
}

// Queued moves class c's and tenant t's queued gauges and the team-wide
// NJOBS_QUEUED gauge by d together. The task service raises them when a
// submission passes its admission decision — before the enqueue, so a
// submitter blocked at the edge counts as demand — and lowers them on
// adoption; a raise also refreshes the tenant's displayed weight. Safe
// for any goroutine.
func (p *Profile) Queued(c load.Class, t load.Tenant, d int64) {
	ts := p.tenant(t.ID)
	p.queueDepth.add(d)
	p.classes[c].queued.add(d)
	ts.queued.add(d)
	if d > 0 {
		ts.weight.set(t.EffectiveWeight())
	}
}

// Migrated is Queued for a job a second-level balancer moves across the
// team boundary: dir -1 on the team it leaves, +1 on the team it joins,
// also counted in that team's NJOBS_MIGRATED out or in counter.
func (p *Profile) Migrated(c load.Class, t load.Tenant, dir int64) {
	p.Queued(c, t, dir)
	if dir > 0 {
		p.migratedIn.add(1)
	} else {
		p.migratedOut.add(1)
	}
}

// Admitted counts n submissions of class c and tenant t entering the
// class queue together after waiting latNS at the edge: n on both ADMIT
// counters, one entry in both latency rings (a batch group waited once).
func (p *Profile) Admitted(c load.Class, t load.Tenant, n int, latNS int64) {
	p.classes[c].admitted(n, latNS)
	p.tenant(t.ID).admitted(n, latNS)
}

// Refused counts one submission that left the edge without entering a
// queue (o: rejected, shed, cancelled or expired) against its class and
// tenant and logs it, stamped Now, in the admission-event ring. rollback
// says the submission had already been counted into the queued gauges
// (it was refused while waiting for space); they are lowered again here.
func (p *Profile) Refused(c load.Class, t load.Tenant, o AdmitOutcome, rollback bool) {
	if rollback {
		p.Queued(c, t, -1)
	}
	p.classes[c].counts[o].add(1)
	p.tenant(t.ID).counts[o].add(1)
	p.admitEvents.Add(AdmitEvent{At: p.Now(), Class: int(c), Outcome: o})
}

// JobDone logs one completed job: its record enters the bounded job log
// (evicting the oldest past MaxJobRecords), its run time feeds the
// job-time EWMA behind JobTimeNS, and its tenant's completed count rises.
// It runs on whichever worker quiesced the job; jobs are coarse-grained,
// so the log's lock (one acquisition per job, not per task) stays off the
// paper's lock-less fast paths.
func (p *Profile) JobDone(r JobRecord) {
	p.jobs.mu.Lock()
	p.jobs.addLocked(r)
	if run := float64(r.End - r.Start); run > 0 {
		p.sigJobNS.set(p.jobNS.Update(run)) // jobNS is guarded by the log's lock
	}
	p.jobs.mu.Unlock()
	p.tenant(r.Tenant).completed.add(1)
}

// QueueDepth returns the NJOBS_QUEUED gauge: jobs submitted but not yet
// adopted. It is the per-shard load signal of a two-level balancer.
func (p *Profile) QueueDepth() int64 { return p.queueDepth.load() }

// ClassQueued returns class c's slice of NJOBS_QUEUED, the backlog a
// strict-priority consumer of that class actually experiences.
func (p *Profile) ClassQueued(c int) int64 { return p.classes[c].queued.load() }

// AdmitCount returns the lifetime count of outcome o for class c.
func (p *Profile) AdmitCount(c int, o AdmitOutcome) uint64 { return p.classes[c].counts[o].load() }

// AdmitCounts returns the full per-class × per-outcome admission counter
// matrix.
func (p *Profile) AdmitCounts() (out [load.NumClasses][NumAdmitOutcomes]uint64) {
	for c := range out {
		out[c] = p.classes[c].outcomes()
	}
	return out
}

// AdmitLatencies returns a copy of class c's retained admission latencies
// (ns, the most recent MaxAdmitLatencies, in admission order).
func (p *Profile) AdmitLatencies(c int) []int64 { return p.classes[c].lat.Snapshot() }

// JobsMigrated returns the NJOBS_MIGRATED counters: how many queued jobs a
// second-level balancer moved into and out of this team.
func (p *Profile) JobsMigrated() (in, out uint64) {
	return p.migratedIn.load(), p.migratedOut.load()
}

// TenantAdmitCount returns tenant id's lifetime count of outcome o.
func (p *Profile) TenantAdmitCount(id int, o AdmitOutcome) uint64 {
	if t := p.seen(id); t != nil {
		return t.counts[o].load()
	}
	return 0
}

// TenantQueued returns tenant id's slice of NJOBS_QUEUED — the footprint
// weighted-fair admission bounds.
func (p *Profile) TenantQueued(id int) int64 {
	if t := p.seen(id); t != nil {
		return t.queued.load()
	}
	return 0
}

// TenantCompleted returns tenant id's completed-job count.
func (p *Profile) TenantCompleted(id int) uint64 {
	if t := p.seen(id); t != nil {
		return t.completed.load()
	}
	return 0
}

// TenantCounters is one tenant's admission picture in a Snapshot.
type TenantCounters struct {
	// Weight is the tenant's fair-share weight as last seen.
	Weight float64 `json:"weight"`
	// Counts is the per-outcome admission counter row (outcome order:
	// admitted, rejected, shed, cancelled, expired).
	Counts [NumAdmitOutcomes]uint64 `json:"counts"`
	// Completed counts the tenant's completed jobs.
	Completed uint64 `json:"completed"`
	// Queued is the tenant's queued gauge at snapshot time.
	Queued int64 `json:"queued,omitempty"`
	// Latencies is the tenant's retained admission-latency ring (ns).
	Latencies []int64 `json:"latencies,omitempty"`
}

// tenantCounters returns the per-tenant state keyed by tenant id, nil
// when no event ever named a tenant.
func (p *Profile) tenantCounters() map[int]TenantCounters {
	tenants := *p.tenants.Load()
	if len(tenants) == 0 {
		return nil
	}
	out := make(map[int]TenantCounters, len(tenants))
	for id, t := range tenants {
		tc := TenantCounters{Weight: t.weight.load(), Completed: t.completed.load()}
		tc.Queued, tc.Counts, tc.Latencies = t.read()
		out[id] = tc
	}
	return out
}

// TenantSummary renders the snapshot's per-tenant admission state as a
// table sorted by tenant id: weight, outcome counters, completions, the
// queued gauge, and admission-latency percentiles. Nothing is written
// when no submission named a tenant, so single-tenant dumps stay
// unchanged.
func (s Snapshot) TenantSummary(w io.Writer) error {
	if len(s.Tenants) == 0 {
		return nil
	}
	ids := make([]int, 0, len(s.Tenants))
	for id := range s.Tenants {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if _, err := fmt.Fprintf(w, "Tenant Summary (per tenant)\n%-8s %6s %9s %9s %9s %9s %9s %8s %12s %12s\n",
		"tenant", "weight", "admitted", "rejected", "shed", "expired", "complete", "queued", "p50-admit", "p99-admit"); err != nil {
		return err
	}
	for _, id := range ids {
		t := s.Tenants[id]
		p50, p99 := latencyPercentiles(t.Latencies)
		if _, err := fmt.Fprintf(w, "%-8d %6.4g %9d %9d %9d %9d %9d %8d %12s %12s\n",
			id, t.Weight,
			t.Counts[AdmitAdmitted], t.Counts[AdmitRejected],
			t.Counts[AdmitShed], t.Counts[AdmitExpired],
			t.Completed, t.Queued, p50, p99); err != nil {
			return err
		}
	}
	return nil
}
