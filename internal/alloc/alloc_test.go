package alloc

import (
	"sync"
	"testing"
)

type task struct {
	id      int
	payload [4]uint64
}

func TestContendedRecycles(t *testing.T) {
	a := NewContended[task]()
	x := a.Get(0)
	x.id = 42
	a.Put(0, x)
	y := a.Get(0)
	if y != x {
		t.Fatal("descriptor not recycled")
	}
	s := a.Stats()
	if s.FreshAllocs != 1 || s.GlobalHits != 1 {
		t.Fatalf("stats = %+v, want 1 fresh + 1 global hit", s)
	}
	a.Put(0, y)
}

func TestContendedConcurrent(t *testing.T) {
	a := NewContended[task]()
	const workers, rounds = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			held := make([]*task, 0, 16)
			for i := 0; i < rounds; i++ {
				//repolint:ok pooledescape — held keeps it; every held descriptor is Put below, 16 at a time and at the end
				x := a.Get(w)
				x.id = w
				held = append(held, x)
				if len(held) == 16 {
					for _, h := range held {
						if h.id != w {
							t.Errorf("descriptor shared while held")
							return
						}
						a.Put(w, h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				a.Put(w, h)
			}
		}(w)
	}
	wg.Wait()
}

func TestMultiLevelLocalFastPath(t *testing.T) {
	a := NewMultiLevel[task](2)
	x := a.Get(0)
	a.Put(0, x)
	y := a.Get(0)
	if y != x {
		t.Fatal("local free list not used")
	}
	s := a.Stats()
	if s.LocalHits != 1 {
		t.Fatalf("stats = %+v, want 1 local hit", s)
	}
	if s.RemoteAcquires != 0 {
		t.Fatalf("unexpected remote acquire: %+v", s)
	}
	a.Put(0, y)
}

func TestMultiLevelRemoteAcquire(t *testing.T) {
	a := NewMultiLevel[task](2)
	// Worker 0 allocates and frees enough to spill a chunk to its shared
	// level, then worker 1 (with nothing local) must acquire from it.
	descs := make([]*task, localCacheMax+1)
	for i := range descs {
		descs[i] = a.Get(0)
	}
	for _, d := range descs {
		a.Put(0, d)
	}
	before := a.Stats()
	if before.RemoteAcquires != 0 {
		t.Fatalf("premature remote acquire: %+v", before)
	}
	got := a.Get(1)
	if got == nil {
		t.Fatal("nil descriptor")
	}
	after := a.Stats()
	if after.RemoteAcquires != 1 {
		t.Fatalf("stats = %+v, want 1 remote acquire", after)
	}
	if after.FreshAllocs != before.FreshAllocs {
		t.Fatalf("fresh alloc used instead of remote chunk: %+v", after)
	}
	a.Put(1, got)
}

func TestMultiLevelFreshFallback(t *testing.T) {
	a := NewMultiLevel[task](3)
	if a.Get(2) == nil {
		t.Fatal("nil descriptor")
	}
	if s := a.Stats(); s.FreshAllocs != 1 {
		t.Fatalf("stats = %+v, want 1 fresh alloc", s)
	}
}

func TestMultiLevelConcurrentNoSharing(t *testing.T) {
	a := NewMultiLevel[task](4)
	const rounds = 20000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				x := a.Get(w)
				x.id = w*rounds + i
				lost := x.id != w*rounds+i
				a.Put(w, x)
				if lost {
					t.Error("lost write")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Producer/consumer pattern: worker 0 allocates, worker 1 frees (tasks are
// created on one worker and finished on another). Descriptors must
// circulate without duplication.
func TestMultiLevelCrossWorkerFlow(t *testing.T) {
	a := NewMultiLevel[task](2)
	ch := make(chan *task, 64)
	const n = 30000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			x := a.Get(0)
			x.id = i
			ch <- x
		}
		close(ch)
	}()
	go func() {
		defer wg.Done()
		prev := -1
		for x := range ch {
			if x.id <= prev {
				t.Errorf("descriptor reused while in flight: id %d after %d", x.id, prev)
				return
			}
			prev = x.id
			a.Put(1, x)
		}
	}()
	wg.Wait()
}

func TestNewMultiLevelValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMultiLevel(0) did not panic")
		}
	}()
	NewMultiLevel[task](0)
}

// The shared entry points move descriptors a run at a time: a run comes
// back whole, a lane that cannot cover a run tops it up fresh, and a
// lane's spill stays bounded however much is put.
func TestMultiLevelSharedRuns(t *testing.T) {
	a := NewMultiLevel[task](2)
	run := make([]*task, 8)
	a.GetSharedRun(1, run)
	if s := a.Stats(); s.FreshAllocs != 8 || s.GlobalHits != 0 {
		t.Fatalf("first run: %+v, want 8 fresh", s)
	}
	seen := make(map[*task]bool)
	for _, x := range run {
		if x == nil || seen[x] {
			t.Fatal("run holds a nil or repeated descriptor")
		}
		seen[x] = true
	}
	a.PutSharedRun(1, run[:5])
	a.PutShared(1, run[5])
	again := make([]*task, 8)
	a.GetSharedRun(1, again)
	pooled := 0
	for _, x := range again {
		if seen[x] {
			pooled++
		}
	}
	if s := a.Stats(); pooled != 6 || s.GlobalHits != 6 || s.FreshAllocs != 10 {
		t.Fatalf("second run: %d pooled, %+v; want the 6 put back and 2 fresh", pooled, s)
	}
	if a.GetShared(0) == nil || a.Stats().FreshAllocs != 11 {
		t.Fatal("lane 0 served from lane 1's spill")
	}
	big := make([]*task, sharedSpillMax+40)
	for i := range big {
		big[i] = new(task)
	}
	a.PutSharedRun(0, big)
	a.PutSharedRun(0, big[:1])
	before := a.Stats()
	a.GetSharedRun(0, big)
	if s := a.Stats(); s.GlobalHits-before.GlobalHits != sharedSpillMax || s.FreshAllocs-before.FreshAllocs != 40 {
		t.Fatalf("a lane kept %d descriptors, bound %d", s.GlobalHits-before.GlobalHits, sharedSpillMax)
	}
}

// The benchmark pair below is the microscopic version of the paper's
// allocator argument: under parallel load the contended allocator
// serializes while the multi-level allocator scales.
func BenchmarkContendedParallel(b *testing.B) {
	a := NewContended[task]()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			x := a.Get(0)
			a.Put(0, x)
		}
	})
}

func BenchmarkMultiLevelParallel(b *testing.B) {
	const workers = 8
	a := NewMultiLevel[task](workers)
	var next int
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		w := next % workers
		next++
		mu.Unlock()
		for pb.Next() {
			x := a.Get(w)
			a.Put(w, x)
		}
	})
}
