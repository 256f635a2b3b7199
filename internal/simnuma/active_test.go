package simnuma

import (
	"testing"

	"repro/internal/numa"
)

// The active-set view keeps the calibrated costs but restricts the worker
// range, so accesses charged to a parked worker id fail loudly instead of
// silently pricing unschedulable work.
func TestModelPrefix(t *testing.T) {
	top := numa.Synthetic(8, 2)
	m := NewModel(top, Config{LocalNS: 2, RemoteNS: 100})
	sub := m.Prefix(4)
	for w := 0; w < 4; w++ {
		for home := 0; home < 2; home++ {
			if sub.AccessCostUnits(w, home) != m.AccessCostUnits(w, home) {
				t.Fatalf("Prefix changed cost for worker %d home %d", w, home)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("access by a parked worker id did not panic in the prefix view")
		}
	}()
	sub.AccessCostUnits(5, 0)
}
