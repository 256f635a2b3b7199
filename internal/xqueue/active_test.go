package xqueue

import "testing"

// PushActive must only ever route to consumers inside the active prefix,
// for producers inside and outside it alike, and must degrade to Push
// when the bound covers (or exceeds) the whole team.
func TestPushActiveBounds(t *testing.T) {
	const workers = 4
	for _, active := range []int{1, 2, 3} {
		x := New[int](workers, 8)
		vals := make([]int, 64)
		for p := 0; p < workers; p++ { // includes producers 2,3 outside active=2
			for i := 0; i < 8; i++ {
				v := &vals[p*8+i]
				target, ok := x.PushActive(p, v, active)
				if !ok {
					continue // full is a legal outcome; the caller executes
				}
				if target >= active {
					t.Fatalf("active=%d: producer %d routed to parked consumer %d", active, p, target)
				}
			}
		}
		// Everything pushed must be reachable by the active consumers only.
		got := 0
		for c := 0; c < active; c++ {
			got += len(drain(x, c))
		}
		for c := active; c < workers; c++ {
			if extra := drain(x, c); len(extra) != 0 {
				t.Fatalf("active=%d: %d items in parked consumer %d's queues", active, len(extra), c)
			}
		}
		if got == 0 {
			t.Fatalf("active=%d: nothing landed in the active prefix", active)
		}
	}
}

// Out-of-range bounds fall back to the full team, and active == Workers
// behaves exactly like Push.
func TestPushActiveFallback(t *testing.T) {
	x := New[int](3, 4)
	y := New[int](3, 4)
	vals := make([]int, 12)
	for i := 0; i < 12; i++ {
		p := i % 3
		tA, okA := x.PushActive(p, &vals[i], 3)
		tB, okB := y.Push(p, &vals[i])
		if tA != tB || okA != okB {
			t.Fatalf("push %d: PushActive(·, 3) = (%d, %v), Push = (%d, %v)", i, tA, okA, tB, okB)
		}
	}
	z := New[int](3, 4)
	v := 0
	if target, _ := z.PushActive(0, &v, 0); target < 0 || target >= 3 {
		t.Fatalf("active=0 fallback routed to %d", target)
	}
	if target, _ := z.PushActive(0, &v, 99); target < 0 || target >= 3 {
		t.Fatalf("active=99 fallback routed to %d", target)
	}
}
