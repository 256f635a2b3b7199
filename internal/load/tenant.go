package load

import (
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Tenancy — the fifth balancing level. Priority classes split traffic
// into three coarse buckets, but inside a class one zipf-hot tenant can
// still monopolize a queue and starve everyone else (the noisy-neighbor
// gap). This file makes the tenant a first-class dimension of the load
// plane: TenantPlane keeps weighted-fair-queuing virtual time per
// tenant, and WFQAdmit applies it at the admission edge. Tenancy is an
// admission policy (AdmitPolicy), not a hard-coded mechanism.

// Tenant identifies the principal behind a submission and its fair-share
// weight. The zero value — what a caller gets from an unfilled
// SubmitOpts — is tenant 0 at weight 1, so single-tenant callers never
// notice the dimension exists.
type Tenant struct {
	// ID names the tenant. Any int is valid; callers that never set it
	// share tenant 0.
	ID int
	// Weight is the tenant's fair-share weight relative to other
	// tenants. Zero (the unfilled default) means 1; a weight-2 tenant is
	// entitled to twice the share of a weight-1 tenant.
	Weight float64
}

// EffectiveWeight returns the weight with the zero-value default
// applied: 0 (or any non-positive weight) counts as 1.
func (t Tenant) EffectiveWeight() float64 {
	if t.Weight > 0 {
		return t.Weight
	}
	return 1
}

const (
	// maxTenantLanes bounds the per-tenant state a plane will hold.
	// Beyond it, new tenants are accounted as transient lanes at the
	// current virtual time — fairness degrades gracefully instead of
	// memory growing without bound.
	maxTenantLanes = 1024
	// defaultCostNS is the per-grant virtual cost before any service
	// time has been observed for a tenant (≈1ms, the corpus' unit job).
	defaultCostNS = 1e6
	// tenantAlpha smooths the per-tenant service-time EWMA; matches the
	// job-time smoothing of Signals.JobNS (DefaultAlpha).
	tenantAlpha = 0.3
)

// tenantLane is one tenant's virtual-time accounting inside a plane.
type tenantLane struct {
	id     int
	weight float64
	// vtime is the tenant's virtual finish time: it advances by
	// cost/weight on every grant, starting no earlier than the plane's
	// current virtual time, so a lane returning from idle cannot burst
	// on stale credit.
	vtime float64
	// svc tracks the tenant's observed service time (EWMA, ns) — the
	// grant cost once at least one completion has been seen.
	svc stats.EWMA
	// inflight counts granted-but-unfinished submissions (queued at the
	// edge, waiting in a class queue, or running). Lanes with inflight
	// work define the plane's virtual time and active weight.
	inflight int
}

// TenantPlane is the per-tenant virtual-time plane behind weighted fair
// queuing. It implements the classic WFQ clock: each tenant's virtual
// time advances by serviceCost/weight per grant, the plane's virtual
// time is the minimum over tenants with work in flight, and an idle
// tenant re-enters at the plane's clock rather than its own stale one.
// WFQAdmit drives it at the admission edge (Grant / Observe / Lead /
// ShareBound). All methods are safe for concurrent use.
type TenantPlane struct {
	mu    sync.Mutex
	lanes map[int]*tenantLane
	// activeWeight caches the weight sum over lanes with inflight > 0,
	// maintained on 0↔positive transitions so ShareBound stays O(1).
	activeWeight float64
}

// NewTenantPlane returns an empty plane.
func NewTenantPlane() *TenantPlane {
	return &TenantPlane{lanes: make(map[int]*tenantLane)}
}

// lane returns t's lane, creating it if the plane has room; nil when the
// lane cap is reached and t is unknown. Callers hold p.mu.
func (p *TenantPlane) lane(t Tenant) *tenantLane {
	if l, ok := p.lanes[t.ID]; ok {
		l.weight = t.EffectiveWeight()
		return l
	}
	if len(p.lanes) >= maxTenantLanes {
		return nil
	}
	l := &tenantLane{
		id:     t.ID,
		weight: t.EffectiveWeight(),
		svc:    stats.NewEWMA(tenantAlpha),
	}
	p.lanes[t.ID] = l
	return l
}

// vminLocked returns the plane's virtual time — the minimum vtime over
// lanes with work in flight — and whether any
// such lane exists. An idle plane has no clock: callers must not compare
// a lane's absolute vtime against the 0 returned here (that would turn
// accumulated virtual time into phantom lead). Deterministic regardless
// of map iteration order (pure minimum with no ties that matter).
// Callers hold p.mu.
func (p *TenantPlane) vminLocked() (float64, bool) {
	min, found := 0.0, false
	for _, l := range p.lanes {
		if l.inflight <= 0 {
			continue
		}
		if !found || l.vtime < min {
			min, found = l.vtime, true
		}
	}
	return min, found
}

// costLocked returns the virtual cost of one grant for lane l: the
// observed EWMA service time once set, defaultCostNS before.
func costLocked(l *tenantLane) float64 {
	if l.svc.Set() && l.svc.Value() > 0 {
		return l.svc.Value()
	}
	return defaultCostNS
}

// grantLocked advances l's virtual time by one grant. Callers hold p.mu.
func (p *TenantPlane) grantLocked(l *tenantLane) {
	start := l.vtime
	if v, active := p.vminLocked(); active && start < v {
		// Idle re-entry: a lane that sat out rejoins at the plane's
		// clock, per classic WFQ (S_i = max(F_i, V)). Virtual time stays
		// monotone per lane by construction.
		start = v
	}
	l.vtime = start + costLocked(l)/l.weight
	if l.inflight == 0 {
		p.activeWeight += l.weight
	}
	l.inflight++
}

// Grant records one admitted submission for t, advancing its virtual
// time and marking the work in flight until Observe.
func (p *TenantPlane) Grant(t Tenant) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.lane(t)
	if l == nil {
		return
	}
	if l.inflight == 0 {
		// Idle re-entry forgives stale debt as well as stale credit: a
		// lane whose vtime ran far ahead (a past flood, burst-shed since
		// drained) rejoins at the plane's clock instead of carrying its
		// lead forever — fairness memory lasts exactly as long as the
		// lane's work in flight does. A continuously-active flood never
		// takes this path, so the burst bound still catches it.
		if v, active := p.vminLocked(); active && l.vtime > v {
			l.vtime = v
		}
	}
	p.grantLocked(l)
}

// Observe records the end of one granted submission: serviceNS > 0 for
// a completed job (feeds the tenant's service-time EWMA), 0 for a
// submission rolled back before running. Unmatched observations — a job
// migrated in from another plane, say — are floored, never negative.
func (p *TenantPlane) Observe(t Tenant, serviceNS float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.lane(t)
	if l == nil {
		return
	}
	if serviceNS > 0 {
		l.svc.Update(serviceNS)
	}
	if l.inflight > 0 {
		l.inflight--
		if l.inflight == 0 {
			p.activeWeight -= l.weight
		}
	}
}

// Lead returns how far t's virtual time runs ahead of the plane's, in
// virtual units (ns/weight). A lane at or behind the plane clock, an
// unknown one, or any lane on an idle plane (no clock to be ahead of)
// leads by 0.
func (p *TenantPlane) Lead(t Tenant) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.lanes[t.ID]
	if !ok {
		return 0
	}
	v, active := p.vminLocked()
	if !active {
		return 0
	}
	if lead := l.vtime - v; lead > 0 {
		return lead
	}
	return 0
}

// CostNS returns the virtual cost of t's next grant: its EWMA service
// time, or the cold-start default.
func (p *TenantPlane) CostNS(t Tenant) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.lanes[t.ID]; ok {
		return costLocked(l)
	}
	return defaultCostNS
}

// ShareBound returns the number of queue slots t may hold out of
// capacity: share × capacity × w/Σw over tenants with work in flight
// (t's own weight always counted), floored at 1 so every tenant can
// always hold one slot. The bound adapts: a tenant alone on the plane
// may use share×capacity, and its slice shrinks as other tenants turn
// active.
func (p *TenantPlane) ShareBound(t Tenant, capacity int, share float64) int {
	if capacity < 1 {
		capacity = 1
	}
	if share <= 0 {
		share = 1
	}
	w := t.EffectiveWeight()
	p.mu.Lock()
	total := p.activeWeight
	if l, ok := p.lanes[t.ID]; !ok || l.inflight == 0 {
		total += w
	}
	p.mu.Unlock()
	if total <= 0 {
		total = w
	}
	bound := int(share * float64(capacity) * w / total)
	if bound < 1 {
		bound = 1
	}
	return bound
}

// WFQAdmit is weighted-fair admission — the noisy-neighbor policy. It
// keeps a TenantPlane and refuses (AdmitShed) any submission that would
// push its tenant past a weighted share of the class queue or too far
// ahead of the plane's virtual time; everything inside the share admits
// with blocking backpressure (AdmitWait), exactly like BlockWhenFull.
// The crucial difference from queue-full rejection: an over-share
// submission is shed even when the queue has space, because that space
// is the other tenants' share. The zero value is ready to use; the one
// policy value shared by every shard of a pool gives the pool a single
// global plane, which is what cross-shard tenant fairness wants.
//
// WFQAdmit implements TenantObserver, so the runtime feeds completed
// job service times back into the plane's per-tenant EWMA.
type WFQAdmit struct {
	// MaxShare scales the share bound: a tenant may hold at most
	// MaxShare × capacity × (w/Σw_active) slots of one class queue
	// (floored at 1). 0 means 0.5.
	MaxShare float64
	// Burst bounds how many grants' worth of virtual time a tenant may
	// run ahead of the plane before being refused, the backstop that
	// catches a tenant whose jobs are huge rather than many. 0 means 16.
	Burst float64

	once    sync.Once
	pl      *TenantPlane
	engaged atomic.Uint64
}

// Plane returns the policy's tenant plane, creating it on first use.
func (p *WFQAdmit) Plane() *TenantPlane {
	p.once.Do(func() { p.pl = NewTenantPlane() })
	return p.pl
}

// Admit implements the weighted-fair decision described on the type.
func (p *WFQAdmit) Admit(req AdmitRequest, sig Signals) AdmitDecision {
	pl := p.Plane()
	t := req.Tenant
	share := p.MaxShare
	if share <= 0 {
		share = 0.5
	}
	if req.TenantQueued >= pl.ShareBound(t, req.Capacity, share) {
		p.engaged.Add(1)
		return AdmitShed
	}
	burst := p.Burst
	if burst <= 0 {
		burst = 16
	}
	if pl.Lead(t) > burst*pl.CostNS(t)/t.EffectiveWeight() {
		p.engaged.Add(1)
		return AdmitShed
	}
	pl.Grant(t)
	return AdmitWait
}

// ObserveComplete implements TenantObserver: it closes the loop from
// job completion (or rollback, serviceNS 0) back to the plane.
func (p *WFQAdmit) ObserveComplete(t Tenant, serviceNS float64) {
	p.Plane().Observe(t, serviceNS)
}

// Engaged returns how many submissions the fairness bounds have refused
// — the counter benchmarks assert is non-zero, so a bench that claims
// to measure WFQ cannot silently run with the policy idle.
func (p *WFQAdmit) Engaged() uint64 { return p.engaged.Load() }

// TenantObserver is implemented by admission policies that track
// per-tenant work in flight. The runtime notifies it once per granted
// submission that leaves the system: serviceNS is the measured run time
// for completed jobs, 0 for submissions rolled back (cancelled,
// expired) or migrated away before running.
type TenantObserver interface {
	ObserveComplete(t Tenant, serviceNS float64)
}
