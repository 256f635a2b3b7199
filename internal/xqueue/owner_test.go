package xqueue

import "testing"

// Each row is FIFO, the owner's plain ring as much as the auxiliary
// B-queues, and Pop serves the owner's row first, also after its cursors
// have wrapped around the ring several times.
func TestFIFOAcrossOwnerAndAuxRows(t *testing.T) {
	const capacity = 4
	x := New[int](3, capacity)
	vals := make([]int, 64)
	for i := range vals {
		vals[i] = i
	}
	next := 0
	for round := 0; round < 5; round++ {
		base := next
		// Three items into consumer 1's own row, three from producer 2.
		for i := 0; i < 3; i++ {
			if !x.PushTo(1, 1, &vals[base+i]) {
				t.Fatalf("round %d: owner-row push %d rejected", round, i)
			}
			if !x.PushTo(2, 1, &vals[base+3+i]) {
				t.Fatalf("round %d: aux-row push %d rejected", round, i)
			}
		}
		next += 6
		for i := 0; i < 6; i++ {
			got := x.Pop(1)
			if got == nil || *got != base+i {
				t.Fatalf("round %d: pop %d = %v, want %d", round, i, got, base+i)
			}
		}
		if got := x.Pop(1); got != nil {
			t.Fatalf("round %d: drained consumer popped %d", round, *got)
		}
	}
}

// A push to the producer's own row fails exactly when the row holds
// capacity items, whether placed by the round-robin or directed, and
// TargetFull(p, p) says so beforehand.
func TestOwnerRowFullAtCapacity(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		for _, capacity := range []int{2, 8} {
			x := New[int](workers, capacity)
			v := 1
			const p = 0
			// workers × capacity round-robin pushes fill every row p feeds;
			// every workers-th of them, from the first, targets p's own row.
			for i := 0; i < workers*capacity; i++ {
				if i%workers == 0 && x.TargetFull(p, p) {
					t.Fatalf("n=%d cap=%d: TargetFull(p, p) before push %d", workers, capacity, i)
				}
				if _, ok := x.Push(p, &v); !ok {
					t.Fatalf("n=%d cap=%d: push %d rejected below capacity", workers, capacity, i)
				}
			}
			if !x.TargetFull(p, p) {
				t.Fatalf("n=%d cap=%d: TargetFull(p, p) false on a full row", workers, capacity)
			}
			target, ok := x.Push(p, &v)
			if target != p || ok {
				t.Fatalf("n=%d cap=%d: push to a full own row = (%d, %v), want (%d, false)", workers, capacity, target, ok, p)
			}
			if x.PushTo(p, p, &v) {
				t.Fatalf("n=%d cap=%d: directed push to a full own row succeeded", workers, capacity)
			}
			// One pop from the own row frees exactly one slot.
			if x.Pop(p) == nil {
				t.Fatalf("n=%d cap=%d: pop from a full row returned nil", workers, capacity)
			}
			if x.TargetFull(p, p) || !x.PushTo(p, p, &v) || !x.TargetFull(p, p) {
				t.Fatalf("n=%d cap=%d: one pop did not free exactly one slot", workers, capacity)
			}
		}
	}
}

// Empty sees an item in either kind of row, and Drain returns the items of
// both, owner's row first.
func TestEmptyAndDrainOverBothRowKinds(t *testing.T) {
	x := New[int](2, 8)
	own, aux := []int{1, 2, 3}, []int{4, 5}
	for i := range own {
		x.PushTo(0, 0, &own[i])
	}
	if x.Empty(0) {
		t.Fatal("Empty true with items in the owner's row")
	}
	if !x.Empty(1) {
		t.Fatal("consumer 1 sees consumer 0's own row")
	}
	got := drain(x, 0)
	if len(got) != len(own) || !x.Empty(0) {
		t.Fatalf("drained %d owner-row items, want %d, then empty", len(got), len(own))
	}
	for i := range aux {
		x.PushTo(1, 0, &aux[i])
	}
	if x.Empty(0) {
		t.Fatal("Empty true with items in an auxiliary row")
	}
	for i := range own {
		x.PushTo(0, 0, &own[i])
	}
	got = drain(x, 0)
	want := append(append([]int{}, own...), aux...)
	if len(got) != len(want) {
		t.Fatalf("drained %d items, want %d", len(got), len(want))
	}
	for i, v := range got {
		if *v != want[i] {
			t.Fatalf("drain item %d = %d, want %d", i, *v, want[i])
		}
	}
	if !x.Empty(0) || x.Pop(0) != nil {
		t.Fatal("consumer 0 not empty after Drain")
	}
}
