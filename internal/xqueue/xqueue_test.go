package xqueue

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRoundRobinStartsAtMaster(t *testing.T) {
	x := New[int](4, 8)
	v := 1
	// Producer 2's first four pushes must target 2, 3, 0, 1 in order.
	want := []int{2, 3, 0, 1, 2, 3}
	for i, w := range want {
		target, ok := x.Push(2, &v)
		if !ok {
			t.Fatalf("push %d rejected", i)
		}
		if target != w {
			t.Fatalf("push %d target = %d, want %d", i, target, w)
		}
	}
}

func TestPopPrefersMaster(t *testing.T) {
	x := New[int](3, 8)
	aux, master := 10, 20
	if !x.PushTo(1, 0, &aux) { // producer 1 -> consumer 0 (auxiliary)
		t.Fatal("aux push failed")
	}
	if !x.PushTo(0, 0, &master) { // producer 0 -> consumer 0 (master)
		t.Fatal("master push failed")
	}
	if got := x.Pop(0); got == nil || *got != master {
		t.Fatalf("first pop = %v, want master", got)
	}
	if got := x.Pop(0); got == nil || *got != aux {
		t.Fatalf("second pop = %v, want aux", got)
	}
	if x.Pop(0) != nil {
		t.Fatal("pop from drained consumer returned item")
	}
}

func TestAuxScanFairness(t *testing.T) {
	// With producers 1 and 2 both feeding consumer 0, the rotating scan
	// must not permanently starve either queue.
	x := New[int](3, 64)
	v1, v2 := 1, 2
	for i := 0; i < 10; i++ {
		x.PushTo(1, 0, &v1)
		x.PushTo(2, 0, &v2)
	}
	var got1, got2 int
	for i := 0; i < 20; i++ {
		v := x.Pop(0)
		if v == nil {
			t.Fatal("ran dry early")
		}
		if *v == 1 {
			got1++
		} else {
			got2++
		}
	}
	if got1 != 10 || got2 != 10 {
		t.Fatalf("scan lost items: %d + %d", got1, got2)
	}
}

// Regression: after a successful pop from producer p, the scan cursor must
// not exclude p from the next scan — a consumer whose only non-empty queue
// is the one it just popped from must still find subsequent items.
func TestScanRevisitsSameProducer(t *testing.T) {
	x := New[int](4, 8)
	v := 7
	for round := 0; round < 5; round++ {
		if !x.PushTo(2, 0, &v) {
			t.Fatal("push failed")
		}
		if got := x.Pop(0); got == nil {
			t.Fatalf("round %d: consumer blind to producer 2", round)
		}
	}
	// Interleave: pop from p=2, then feed only p=2 again.
	x.PushTo(2, 0, &v)
	x.Pop(0)
	x.PushTo(2, 0, &v)
	if got := x.Pop(0); got == nil {
		t.Fatal("consumer lost producer 2 after draining it")
	}
}

func TestFullSignalsImmediateExec(t *testing.T) {
	// Single worker: every push targets the master queue; once it is full
	// Push must report ok=false (caller executes immediately).
	x := New[int](1, 4)
	v := 9
	for i := 0; i < 4; i++ {
		if _, ok := x.Push(0, &v); !ok {
			t.Fatalf("push %d rejected before capacity", i)
		}
	}
	if _, ok := x.Push(0, &v); ok {
		t.Fatal("push into full queue succeeded")
	}
	if !x.TargetFull(0, 0) {
		t.Fatal("TargetFull false on full queue")
	}
}

func TestEmpty(t *testing.T) {
	x := New[int](3, 8)
	if !x.Empty(0) || !x.Empty(1) || !x.Empty(2) {
		t.Fatal("fresh matrix not empty")
	}
	v := 5
	x.PushTo(2, 1, &v)
	if x.Empty(1) {
		t.Fatal("consumer 1 should see pending item")
	}
	if !x.Empty(0) || !x.Empty(2) {
		t.Fatal("other consumers affected")
	}
	x.Pop(1)
	if !x.Empty(1) {
		t.Fatal("consumer 1 not empty after drain")
	}
}

// drain pops every item reachable by consumer c; producers must be
// quiescent.
func drain[T any](x *XQueue[T], c int) []*T {
	var out []*T
	for v := x.Pop(c); v != nil; v = x.Pop(c) {
		out = append(out, v)
	}
	return out
}

func TestDrain(t *testing.T) {
	x := New[int](2, 8)
	vals := []int{1, 2, 3, 4, 5}
	for i := range vals {
		x.PushTo(0, 1, &vals[i])
	}
	got := drain(x, 1)
	if len(got) != len(vals) {
		t.Fatalf("drained %d items, want %d", len(got), len(vals))
	}
}

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 8) did not panic")
		}
	}()
	New[int](0, 8)
}

// Property: the static balancer cycles through all N consumers exactly once
// per N pushes, for any worker count and producer.
func TestRoundRobinCoverageProperty(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw%16) + 1
		p := int(pRaw) % n
		x := New[int](n, 256)
		v := 0
		seen := make(map[int]int)
		for i := 0; i < n; i++ {
			target, _ := x.Push(p, &v)
			seen[target]++
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MPMC stress: N workers each produce items via the static balancer and
// consume their own queues concurrently. Every item must be delivered
// exactly once. Run with -race.
func TestMPMCExactlyOnce(t *testing.T) {
	const (
		n       = 4
		perProd = 20000
	)
	x := New[int64](n, 128)
	var delivered atomic.Int64
	var executedInline atomic.Int64
	seen := make([]atomic.Int32, n*perProd)

	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			items := make([]int64, perProd)
			produced := 0
			for produced < perProd || delivered.Load()+executedInline.Load() < int64(n*perProd) {
				if produced < perProd {
					items[produced] = int64(w*perProd + produced)
					if _, ok := x.Push(w, &items[produced]); ok {
						// queued for some consumer
					} else {
						// overflow rule: execute immediately
						seen[items[produced]].Add(1)
						executedInline.Add(1)
					}
					produced++
				}
				if v := x.Pop(w); v != nil {
					seen[*v].Add(1)
					delivered.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("item %d delivered %d times", i, got)
		}
	}
}

func BenchmarkPushPopSelf(b *testing.B) {
	x := New[int](8, 1024)
	v := 3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := x.Push(0, &v); !ok {
			x.Pop(0)
		}
		x.Pop(0)
	}
}

func BenchmarkCrossWorkerHandoff(b *testing.B) {
	x := New[int](2, 1024)
	v := 3
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			for !x.PushTo(0, 1, &v) {
			}
		}
	}()
	for i := 0; i < b.N; {
		if x.Pop(1) != nil {
			i++
		}
	}
	<-done
}
