package intake

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRingFIFOAndBound(t *testing.T) {
	r := New[int](5) // non-power-of-two bound: slot array 8, bound 5
	if r.Cap() != 5 {
		t.Fatalf("Cap() = %d, want 5", r.Cap())
	}
	for i := 0; i < 5; i++ {
		if !r.TryEnqueue(i) {
			t.Fatalf("enqueue %d refused below bound", i)
		}
	}
	if r.TryEnqueue(99) {
		t.Fatal("enqueue accepted past the bound")
	}
	if got := r.Len(); got != 5 {
		t.Fatalf("Len() = %d, want 5", got)
	}
	for i := 0; i < 5; i++ {
		v, ok := r.TryDequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	if _, ok := r.TryDequeue(); ok {
		t.Fatal("dequeue from empty ring succeeded")
	}
}

func TestRingWrapsManyLaps(t *testing.T) {
	r := New[int](3)
	for i := 0; i < 1000; i++ {
		if !r.TryEnqueue(i) {
			t.Fatalf("lap enqueue %d refused", i)
		}
		v, ok := r.TryDequeue()
		if !ok || v != i {
			t.Fatalf("lap dequeue %d = (%d, %v)", i, v, ok)
		}
	}
}

func TestRingEnqueueBatch(t *testing.T) {
	r := New[int](6)
	if n := r.EnqueueBatch([]int{0, 1, 2, 3}); n != 4 {
		t.Fatalf("batch of 4 into empty ring: %d", n)
	}
	// Only 2 slots left under the bound: partial fit.
	if n := r.EnqueueBatch([]int{4, 5, 6, 7}); n != 2 {
		t.Fatalf("batch of 4 into 2 free slots: %d", n)
	}
	if n := r.EnqueueBatch([]int{8}); n != 0 {
		t.Fatalf("batch into full ring: %d", n)
	}
	for i := 0; i < 6; i++ {
		v, ok := r.TryDequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d = (%d, %v)", i, v, ok)
		}
	}
}

// TestRingConcurrent hammers the ring with mixed single/batch producers
// and multiple consumers and checks every item arrives exactly once.
// Run under -race this is the memory-ordering test for the slot
// protocol.
func TestRingConcurrent(t *testing.T) {
	const (
		producers = 4
		consumers = 3
		perProd   = 4000
	)
	r := New[int](64)
	var got [producers * perProd]atomic.Int32
	var wg sync.WaitGroup
	var done atomic.Bool
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := r.TryDequeue()
				if !ok {
					if done.Load() && r.Len() == 0 {
						// Double-check: a producer may have raced in
						// between the Len and done loads.
						if _, ok := r.TryDequeue(); !ok {
							return
						}
						continue
					}
					// Yield so spinning consumers cannot starve the
					// producers on small GOMAXPROCS.
					runtime.Gosched()
					continue
				}
				got[v].Add(1)
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			base := p * perProd
			i := 0
			for i < perProd {
				if p%2 == 0 {
					// Batch producer: groups of up to 7.
					n := 7
					if i+n > perProd {
						n = perProd - i
					}
					vs := make([]int, n)
					for k := range vs {
						vs[k] = base + i + k
					}
					m := r.EnqueueBatch(vs)
					i += m
					if m == 0 {
						runtime.Gosched()
					}
				} else if r.TryEnqueue(base + i) {
					i++
				} else {
					runtime.Gosched()
				}
			}
		}(p)
	}
	pwg.Wait()
	done.Store(true)
	wg.Wait()
	for i := range got {
		if n := got[i].Load(); n != 1 {
			t.Fatalf("item %d seen %d times", i, n)
		}
	}
}

// TestRingBoundUnderContention checks the exact logical bound is never
// exceeded while producers and consumers race (the property that keeps
// Config.Backlog's backpressure meaning).
func TestRingBoundUnderContention(t *testing.T) {
	const bound = 5
	r := New[int](bound)
	var wg sync.WaitGroup
	stop := time.Now().Add(50 * time.Millisecond)
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				r.TryEnqueue(1)
				if n := r.Len(); n > bound {
					t.Errorf("Len() = %d exceeds bound %d", n, bound)
					return
				}
			}
		}()
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				r.TryDequeue()
			}
		}()
	}
	wg.Wait()
}

// TestGateNoLostWake exercises the arm → retry → block protocol against
// concurrent wakes.
func TestGateNoLostWake(t *testing.T) {
	g := NewGate()
	r := New[int](1)
	if !r.TryEnqueue(0) {
		t.Fatal("seed enqueue failed")
	}
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		for {
			ch := g.Arm()
			if r.TryEnqueue(1) {
				return
			}
			<-ch
		}
	}()
	// Consumer side: free the slot and wake.
	time.Sleep(time.Millisecond)
	if _, ok := r.TryDequeue(); !ok {
		t.Fatal("seed dequeue failed")
	}
	g.Wake()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked producer missed the wake")
	}
}

// TestGateNoLostWakeHammer is the same protocol at full speed: a producer
// pushes a long sequence through a one-slot ring, blocking on the gate
// whenever it is full, against a consumer that wakes after every
// dequeue. A lost wake hangs into the watchdog.
func TestGateNoLostWakeHammer(t *testing.T) {
	const n = 20000
	g := NewGate()
	r := New[int](1)
	go func() {
		for i := 0; i < n; i++ {
			for {
				ch := g.Arm()
				if r.TryEnqueue(i) {
					break
				}
				<-ch
			}
		}
	}()
	watchdog := time.After(30 * time.Second)
	for want := 0; want < n; {
		v, ok := r.TryDequeue()
		if !ok {
			select {
			case <-watchdog:
				t.Fatalf("producer stuck after %d of %d items", want, n)
			default:
				runtime.Gosched()
			}
			continue
		}
		g.Wake()
		if v != want {
			t.Fatalf("dequeued %d, want %d", v, want)
		}
		want++
	}
}

func TestGateWakeWithoutWaitersIsFree(t *testing.T) {
	g := NewGate()
	if g.Wake() {
		t.Fatal("Wake on a gate nobody armed reported a release")
	}
	// It must not have closed the channel the next waiter gets.
	select {
	case <-g.Arm():
		t.Fatal("Wake with no waiters closed the channel")
	default:
	}
}

// TestGateWakesOncePerArm pins the wake-once cost model: of N Wakes after
// one Arm the first closes the channel and disarms, and every later one
// releases nobody and allocates nothing.
func TestGateWakesOncePerArm(t *testing.T) {
	g := NewGate()
	ch := g.Arm()
	if !g.Wake() {
		t.Fatal("first Wake after Arm released nobody")
	}
	select {
	case <-ch:
	default:
		t.Fatal("first Wake after Arm left the armed channel open")
	}
	for i := 0; i < 8; i++ {
		if g.Wake() {
			t.Fatalf("Wake %d after the release reported another", i+2)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() { g.Wake() }); allocs != 0 {
		t.Fatalf("Wake on a disarmed gate allocates: %v allocs/op", allocs)
	}
	// Re-arming hands out the fresh channel, and the cycle repeats.
	ch = g.Arm()
	select {
	case <-ch:
		t.Fatal("Arm after a Wake returned the closed channel")
	default:
	}
	if !g.Wake() {
		t.Fatal("Wake after re-arming released nobody")
	}
	<-ch
}

// TestGateBroadcast: one Wake releases every waiter that armed before it.
func TestGateBroadcast(t *testing.T) {
	const waiters = 8
	g := NewGate()
	var open atomic.Bool
	var armed, wg sync.WaitGroup
	armed.Add(waiters)
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			first := true
			for {
				ch := g.Arm()
				if first {
					armed.Done()
					first = false
				}
				if open.Load() {
					return
				}
				<-ch
			}
		}()
	}
	armed.Wait()
	open.Store(true)
	if !g.Wake() {
		t.Fatal("Wake with armed waiters released nobody")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("one Wake did not release every armed waiter")
	}
}

func TestBellWakeOne(t *testing.T) {
	b := NewBell(4)
	b.Sleep(2)
	b.Ring()
	select {
	case <-b.Chan(2):
	case <-time.After(time.Second):
		t.Fatal("sleeper 2 not woken")
	}
	b.Cancel(2)
	// Ring with nobody sleeping: no token appears later.
	b.Ring()
	b.Sleep(1)
	select {
	case <-b.Chan(1):
		t.Fatal("stale ring woke a later sleeper")
	case <-time.After(10 * time.Millisecond):
	}
	b.Cancel(1)
}

func TestBellRingManyAndAll(t *testing.T) {
	b := NewBell(4)
	for id := 0; id < 4; id++ {
		b.Sleep(id)
	}
	b.RingMany(2)
	woken := 0
	for id := 0; id < 4; id++ {
		select {
		case <-b.Chan(id):
			woken++
			b.Cancel(id)
		default:
		}
	}
	if woken != 2 {
		t.Fatalf("RingMany(2) woke %d sleepers", woken)
	}
	b.RingAll()
	for id := 0; id < 4; id++ {
		select {
		case <-b.Chan(id):
			b.Cancel(id)
		default:
			// The two already-cancelled sleepers are no longer
			// registered; they must not hold tokens.
			b.Cancel(id)
		}
	}
}

// TestBellCancelRemovesSleeper: a cancelled sleeper must not absorb a
// ring meant for a remaining one.
func TestBellCancelRemovesSleeper(t *testing.T) {
	b := NewBell(2)
	b.Sleep(0)
	b.Sleep(1)
	b.Cancel(1)
	b.Ring()
	select {
	case <-b.Chan(0):
	case <-time.After(time.Second):
		t.Fatal("ring after cancel missed the remaining sleeper")
	}
}

// TestBellWake: the directed wake reaches exactly the named sleeper, is
// a no-op for an id that is awake, and never leaves a token behind for
// that id's next Sleep. The concurrent half pairs Wake with the
// register-then-recheck protocol: every published item is either seen by
// the sleeper's re-check or announced by a token.
func TestBellWake(t *testing.T) {
	b := NewBell(3)
	b.Sleep(0)
	b.Sleep(1)
	b.Wake(0)
	select {
	case <-b.Chan(0):
	case <-time.After(time.Second):
		t.Fatal("Wake(0) did not wake sleeper 0")
	}
	select {
	case <-b.Chan(1):
		t.Fatal("Wake(0) woke sleeper 1")
	default:
	}
	b.Cancel(0)
	// A ring after the directed wake must find sleeper 1, not the
	// deregistered 0.
	b.Ring()
	select {
	case <-b.Chan(1):
	case <-time.After(time.Second):
		t.Fatal("Ring after Wake(0) missed sleeper 1")
	}
	b.Cancel(1)

	// Awake ids: no token now, none in the next Sleep.
	b.Wake(0)
	b.Wake(2)
	for _, id := range []int{0, 2} {
		b.Sleep(id)
		select {
		case <-b.Chan(id):
			t.Fatalf("Wake of awake id %d leaked a token into its next Sleep", id)
		case <-time.After(5 * time.Millisecond):
		}
		b.Cancel(id)
	}

	// A wake that raced the sleeper's own Cancel is drained by it.
	b.Sleep(2)
	b.Wake(2)
	b.Cancel(2)
	b.Sleep(2)
	select {
	case <-b.Chan(2):
		t.Fatal("token survived Cancel into the next Sleep")
	case <-time.After(5 * time.Millisecond):
	}
	b.Cancel(2)

	// Publish-then-Wake against Sleep-then-recheck, no timer: a lost
	// wakeup parks the consumer forever and trips the watchdog.
	const items = 20000
	var box atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got := int64(0); got < items; {
			if n := box.Swap(0); n > 0 {
				got += n
				continue
			}
			b.Sleep(1)
			if box.Load() == 0 {
				<-b.Chan(1)
			}
			b.Cancel(1)
		}
	}()
	for i := 0; i < items; i++ {
		box.Add(1)
		b.Wake(1)
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("consumer wedged with %d items unannounced", box.Load())
	}
}

// TestRingBoundOneHammer drives a bound-1 ring — the Backlog: 1 shape —
// with two producers and two consumers. A one-slot array cannot tell
// "occupied at p" from "free for p+1", so a producer could overwrite the
// slot under a consumer still reading it: a value is lost or duplicated
// and the slot's sequence rewinds, after which every enqueue spins
// forever. Every value must come out exactly once and the ring must
// still take work afterwards.
func TestRingBoundOneHammer(t *testing.T) {
	const (
		producers = 2
		consumers = 2
		perProd   = 50000
	)
	r := New[int](1)
	var got [producers * perProd]atomic.Int32
	var taken atomic.Int64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProd; {
					if r.TryEnqueue(p*perProd + i) {
						i++
					} else {
						runtime.Gosched()
					}
				}
			}(p)
		}
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for taken.Load() < producers*perProd {
					if v, ok := r.TryDequeue(); ok {
						got[v].Add(1)
						taken.Add(1)
					} else {
						runtime.Gosched()
					}
				}
			}()
		}
		wg.Wait()
		if !r.TryEnqueue(-1) {
			t.Error("drained ring refuses an enqueue")
		} else if v, ok := r.TryDequeue(); !ok || v != -1 {
			t.Errorf("drained ring dequeue = (%d, %v), want (-1, true)", v, ok)
		}
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatalf("ring wedged after %d of %d dequeues (slot sequence corrupted)", taken.Load(), producers*perProd)
	}
	for i := range got {
		if n := got[i].Load(); n != 1 {
			t.Fatalf("value %d dequeued %d times", i, n)
		}
	}
}
