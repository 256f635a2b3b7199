package bqueue

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewValidatesCapacity(t *testing.T) {
	for _, bad := range []int{0, 1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New[int](bad)
		}()
	}
	for _, good := range []int{2, 4, 64, 1024} {
		if q := New[int](good); len(q.buf) != good {
			t.Errorf("capacity = %d, want %d", len(q.buf), good)
		}
	}
}

func TestEnqueueNilPanics(t *testing.T) {
	q := New[int](4)
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue(nil) did not panic")
		}
	}()
	q.Enqueue(nil)
}

func TestFIFOSingleThread(t *testing.T) {
	q := New[int](8)
	vals := []int{10, 20, 30}
	for i := range vals {
		if !q.Enqueue(&vals[i]) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	for i := range vals {
		got := q.Dequeue()
		if got == nil || *got != vals[i] {
			t.Fatalf("dequeue %d = %v, want %d", i, got, vals[i])
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("dequeue from empty queue returned item")
	}
}

func TestFullCapacityUsable(t *testing.T) {
	const capacity = 16
	q := New[int](capacity)
	vals := make([]int, capacity)
	for i := 0; i < capacity; i++ {
		vals[i] = i
		if !q.Enqueue(&vals[i]) {
			t.Fatalf("enqueue %d/%d failed before capacity", i, capacity)
		}
	}
	if q.Enqueue(&vals[0]) {
		t.Fatal("enqueue beyond capacity succeeded")
	}
	if !q.ProbeFull() {
		t.Fatal("ProbeFull false on full queue")
	}
	for i := 0; i < capacity; i++ {
		got := q.Dequeue()
		if got == nil || *got != i {
			t.Fatalf("dequeue %d = %v", i, got)
		}
	}
}

func TestEmptyReporting(t *testing.T) {
	q := New[int](4)
	if !q.Empty() {
		t.Fatal("fresh queue not empty")
	}
	v := 1
	q.Enqueue(&v)
	if q.Empty() {
		t.Fatal("queue with item reported empty")
	}
	q.Dequeue()
	if !q.Empty() {
		t.Fatal("drained queue not empty")
	}
}

// An empty queue stays empty however often it is polled — at every
// position of the consumer's cursor within its probe batch — and the very
// next enqueue is seen by the very next dequeue.
func TestEmptyStaysEmptyThenSeesNextEnqueue(t *testing.T) {
	q := New[int](64) // probe batch 16: walk the cursor through three of them
	vals := make([]int, 50)
	for i := range vals {
		for poll := 0; poll < 3; poll++ {
			if got := q.Dequeue(); got != nil {
				t.Fatalf("empty queue at position %d, poll %d returned %d", i, poll, *got)
			}
		}
		vals[i] = i
		if !q.Enqueue(&vals[i]) {
			t.Fatalf("enqueue %d failed", i)
		}
		if got := q.Dequeue(); got == nil || *got != i {
			t.Fatalf("dequeue after enqueue %d = %v", i, got)
		}
	}
	if got := q.Dequeue(); got != nil {
		t.Fatalf("drained queue returned %d", *got)
	}
}

func TestWrapAround(t *testing.T) {
	q := New[int](4)
	vals := make([]int, 1000)
	for i := range vals {
		vals[i] = i
		if !q.Enqueue(&vals[i]) {
			t.Fatalf("enqueue %d failed", i)
		}
		got := q.Dequeue()
		if got == nil || *got != i {
			t.Fatalf("dequeue %d = %v", i, got)
		}
	}
}

// Property: for any interleaved sequence of enqueue/dequeue operations
// executed single-threaded, the queue behaves exactly like a bounded FIFO.
func TestFIFOModelProperty(t *testing.T) {
	f := func(ops []bool, capLog uint8) bool {
		capacity := 2 << (capLog % 6) // 2..64
		q := New[int](capacity)
		var model []int
		vals := make([]int, 0, len(ops))
		next := 0
		for _, isEnq := range ops {
			if isEnq {
				vals = append(vals, next)
				ok := q.Enqueue(&vals[len(vals)-1])
				wantOK := len(model) < capacity
				if ok != wantOK {
					return false
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else {
				got := q.Dequeue()
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got == nil || *got != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Concurrent SPSC stress: one producer, one consumer, every item delivered
// exactly once in order. Run with -race to validate the memory ordering.
//
// The spin loops yield on failure: the queue is non-blocking, so a full or
// empty result means the peer must run before this side can progress. On
// GOMAXPROCS=1 an unyielding spin starves the peer for a whole scheduling
// quantum (the runtime's own idle loops yield the same way; see
// core.stallSpins).
func TestConcurrentSPSC(t *testing.T) {
	const n = 200000
	q := New[int](256)
	vals := make([]int, n)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			vals[i] = i
			for !q.Enqueue(&vals[i]) {
				runtime.Gosched()
			}
		}
	}()
	var firstErr error
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			v := q.Dequeue()
			if v == nil {
				runtime.Gosched()
				continue
			}
			if *v != i && firstErr == nil {
				firstErr = errOrder{want: i, got: *v}
			}
			i++
		}
	}()
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if q.Dequeue() != nil {
		t.Fatal("queue not empty after draining all items")
	}
}

type errOrder struct{ want, got int }

func (e errOrder) Error() string { return "out of order delivery" }

// Payload visibility: fields written before Enqueue must be visible to the
// consumer after Dequeue (the happens-before edge through the slot store).
func TestPayloadVisibility(t *testing.T) {
	type payload struct{ a, b, c int }
	q := New[payload](64)
	const n = 50000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			p := &payload{a: i, b: 2 * i, c: 3 * i}
			for !q.Enqueue(p) {
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < n; {
		p := q.Dequeue()
		if p == nil {
			runtime.Gosched()
			continue
		}
		if p.a != i || p.b != 2*i || p.c != 3*i {
			t.Fatalf("payload torn at %d: %+v", i, *p)
		}
		i++
	}
	<-done
}

// TestTinyCapacityConcurrent exercises the batch clamp (batch = 1 at
// capacity 2, batch = 2 at capacity 4) under a concurrent producer and
// consumer. This test used to livelock the whole package for its 600s
// timeout: neither spin loop yielded, so on a single-CPU host each
// goroutine burned its full scheduling quantum against a ring that holds
// at most two items before the other side could run. The explicit stall
// deadline — extended on progress, so it bounds how long the stream may
// stop rather than the test's total runtime — makes any regression fail
// in seconds instead of stalling CI.
func TestTinyCapacityConcurrent(t *testing.T) {
	const stallLimit = 30 * time.Second
	for _, capacity := range []int{2, 4} {
		q := New[int](capacity)
		const n = 50000
		vals := make([]int, n)
		deadline := time.Now().Add(stallLimit)
		go func() {
			for i := 0; i < n; i++ {
				vals[i] = i
				for !q.Enqueue(&vals[i]) {
					runtime.Gosched()
				}
			}
		}()
		for i := 0; i < n; {
			v := q.Dequeue()
			if v == nil {
				if time.Now().After(deadline) {
					t.Fatalf("capacity %d: stalled, no dequeue for %v at %d/%d items",
						capacity, stallLimit, i, n)
				}
				runtime.Gosched()
				continue
			}
			if *v != i {
				t.Fatalf("capacity %d: order broken at %d: got %d", capacity, i, *v)
			}
			i++
			if i%1024 == 0 {
				deadline = time.Now().Add(stallLimit)
			}
		}
	}
}

func BenchmarkEnqueueDequeue(b *testing.B) {
	q := New[int](1024)
	v := 7
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(&v)
		q.Dequeue()
	}
}

func BenchmarkSPSCThroughput(b *testing.B) {
	q := New[int](1024)
	v := 7
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			for !q.Enqueue(&v) {
			}
		}
	}()
	for i := 0; i < b.N; {
		if q.Dequeue() != nil {
			i++
		}
	}
	<-done
}
