package load

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Property-style tests for the WFQ plane, driven through Grant/Observe
// with seeded randomness from internal/rng — deterministic run to run,
// no wall clock anywhere. Each tenant holds one grant that is never
// observed, so every lane stays in flight and defines the plane's clock,
// as under saturation; nextFair is the scheduler's pick among them.

// saturate grants each tenant one submission that stays in flight.
func saturate(p *TenantPlane, tenants []Tenant) {
	for _, tn := range tenants {
		p.Grant(tn)
	}
}

// nextFair returns the tenant with the smallest virtual finish time if
// granted now, ties to the earlier tenant: weighted-fair order over
// tenants that always have work waiting.
func nextFair(p *TenantPlane, tenants []Tenant) Tenant {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, _ := p.vminLocked()
	var best Tenant
	bestFinish := math.Inf(1)
	for _, tn := range tenants {
		l := p.lanes[tn.ID]
		start := l.vtime
		if start < v {
			start = v
		}
		if finish := start + costLocked(l)/l.weight; finish < bestFinish {
			best, bestFinish = tn, finish
		}
	}
	return best
}

// clocks returns tenant id's virtual time and the plane's.
func clocks(p *TenantPlane, id int) (lane, plane float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	plane, _ = p.vminLocked()
	return p.lanes[id].vtime, plane
}

// TestTenantPlaneVirtualTimeMonotone pins the clock invariants: each
// tenant's virtual time never decreases across grants, and the plane's
// clock never decreases while the set of tenants in flight is stable (no
// lane re-enters from idle below the minimum).
func TestTenantPlaneVirtualTimeMonotone(t *testing.T) {
	r := rng.New(1)
	p := NewTenantPlane()
	tenants := []Tenant{{ID: 0}, {ID: 1, Weight: 2}, {ID: 2, Weight: 0.5}, {ID: 3, Weight: 4}}
	saturate(p, tenants)
	_, lastV := clocks(p, 0)
	lastT := map[int]float64{}
	for i := 0; i < 5000; i++ {
		tn := nextFair(p, tenants)
		p.Grant(tn)
		vt, v := clocks(p, tn.ID)
		if vt < lastT[tn.ID] {
			t.Fatalf("grant %d: tenant %d virtual time went backwards: %g -> %g", i, tn.ID, lastT[tn.ID], vt)
		}
		lastT[tn.ID] = vt
		if v < lastV {
			t.Fatalf("grant %d: plane clock went backwards: %g -> %g", i, lastV, v)
		}
		lastV = v
		// Random service times keep per-tenant costs moving through the
		// EWMA, so the invariant is exercised off the cold-start path.
		p.Observe(tn, 5e5+r.Float64()*1.5e6)
	}
}

// TestTenantPlaneNoStarvation: with every tenant permanently backlogged,
// no tenant waits more than a bounded number of consecutive grants for
// its next one, even as randomized service observations skew per-tenant
// costs by up to ~4x.
func TestTenantPlaneNoStarvation(t *testing.T) {
	const (
		n      = 4
		grants = 8000
		// Cost ratios are bounded by the observation range below (~4x),
		// so between two grants to one tenant each competitor can take
		// at most a handful; 6 per competitor is a generous ceiling.
		maxGap = 6 * n
	)
	r := rng.New(2)
	p := NewTenantPlane()
	tenants := make([]Tenant, n)
	for id := range tenants {
		tenants[id] = Tenant{ID: id}
	}
	saturate(p, tenants)
	lastGrant := map[int]int{}
	granted := make([]int, n)
	for i := 0; i < grants; i++ {
		tn := nextFair(p, tenants)
		p.Grant(tn)
		if gap := i - lastGrant[tn.ID]; gap > maxGap {
			t.Fatalf("tenant %d starved for %d consecutive grants (bound %d)", tn.ID, gap, maxGap)
		}
		lastGrant[tn.ID] = i
		granted[tn.ID]++
		p.Observe(tn, 5e5+r.Float64()*1.5e6)
	}
	for id, g := range granted {
		if g == 0 {
			t.Errorf("tenant %d never granted", id)
		}
	}
}

// TestTenantPlaneShareConvergesToWeights: under saturation with uniform
// service times, grant counts converge to the weight ratio, and the
// equal-weight case is near-perfectly fair by Jain's index.
func TestTenantPlaneShareConvergesToWeights(t *testing.T) {
	const grants = 8000
	// run grants in weighted-fair order and returns each tenant's count.
	run := func(tenants []Tenant) []float64 {
		p := NewTenantPlane()
		saturate(p, tenants)
		counts := make([]float64, len(tenants))
		for i := 0; i < grants; i++ {
			tn := nextFair(p, tenants)
			p.Grant(tn)
			counts[tn.ID]++
			// Observe with the full tenant (id and weight), as the
			// runtime does — the lane refreshes its weight from every
			// call.
			p.Observe(tn, 1e6)
		}
		return counts
	}

	weighted := []Tenant{{ID: 0, Weight: 1}, {ID: 1, Weight: 1}, {ID: 2, Weight: 2}, {ID: 3, Weight: 4}}
	totalW := 0.0
	for _, tn := range weighted {
		totalW += tn.Weight
	}
	counts := run(weighted)
	for _, tn := range weighted {
		want := float64(grants) * tn.Weight / totalW
		if got := counts[tn.ID]; got < 0.95*want || got > 1.05*want {
			t.Errorf("tenant %d (weight %g): %g grants, want %g ±5%%", tn.ID, tn.Weight, got, want)
		}
	}

	// Equal weights: Jain's fairness index over grant counts ≥ 0.9.
	xs := run([]Tenant{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}})
	if j := stats.Jain(xs); j < 0.9 {
		t.Errorf("equal-weight Jain index %g < 0.9 (grants %v)", j, xs)
	}
}

// TestWFQAdmitBoundsHotTenantShare simulates the admission edge against
// a modeled class queue: one hot tenant submitting 10x anyone else must
// be capped at its share of the queue while the victims are never shed.
func TestWFQAdmitBoundsHotTenantShare(t *testing.T) {
	const capacity = 16
	p := &WFQAdmit{MaxShare: 0.5}
	hot := Tenant{ID: 9}
	victims := []Tenant{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	queued := map[int]int{}
	order := []int{} // FIFO of queued tenant ids, the modeled queue
	total := 0
	var victimShed, hotShed, hotMax int
	victimGranted := map[int]int{}
	submit := func(tn Tenant) {
		req := AdmitRequest{
			Queued:       total,
			Capacity:     capacity,
			Tenant:       tn,
			TenantQueued: queued[tn.ID],
		}
		switch p.Admit(req, Signals{}) {
		case AdmitWait:
			// Granted: the submitter queues (or blocks at the edge,
			// which the per-tenant gauge counts identically).
			queued[tn.ID]++
			total++
			order = append(order, tn.ID)
			if tn.ID != hot.ID {
				victimGranted[tn.ID]++
			} else if queued[tn.ID] > hotMax {
				hotMax = queued[tn.ID]
			}
		case AdmitShed:
			if tn.ID == hot.ID {
				hotShed++
			} else {
				victimShed++
			}
		default:
			t.Fatalf("unexpected decision for tenant %d", tn.ID)
		}
	}
	for step := 0; step < 4000; step++ {
		submit(hot)
		if step%10 == 0 {
			submit(victims[(step/10)%len(victims)])
		}
		// Drain one job per step in FIFO order.
		if len(order) > 0 {
			id := order[0]
			order = order[1:]
			queued[id]--
			total--
			p.ObserveComplete(Tenant{ID: id}, 1e6)
		}
	}
	if hotShed+victimShed == 0 {
		t.Fatalf("fairness bounds never engaged against a 10x hot tenant")
	}
	if hotShed == 0 {
		t.Errorf("hot tenant never shed")
	}
	if victimShed != 0 {
		t.Errorf("victims shed %d times; WFQ must only refuse the over-share tenant", victimShed)
	}
	if bound := int(0.5 * capacity); hotMax > bound {
		t.Errorf("hot tenant held %d queue slots, share bound is %d", hotMax, bound)
	}
	for _, v := range victims {
		if victimGranted[v.ID] == 0 {
			t.Errorf("victim %d never granted", v.ID)
		}
	}
}

// TestWFQAdmitSingleTenantUnbounded: a lone tenant inside its share and
// burst bounds admits exactly like BlockWhenFull — the dimension is
// invisible to single-tenant callers.
func TestWFQAdmitSingleTenantPassthrough(t *testing.T) {
	p := &WFQAdmit{MaxShare: 0.5}
	for i := 0; i < 8; i++ {
		req := AdmitRequest{Queued: i, Capacity: 16, TenantQueued: i}
		if d := p.Admit(req, Signals{}); d != AdmitWait {
			t.Fatalf("submission %d: decision %v, want AdmitWait", i, d)
		}
		p.ObserveComplete(Tenant{}, 1e6)
	}
}
