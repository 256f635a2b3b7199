// Package intake provides the admission edge's bounded lock-free intake
// queue and its two wakeup primitives.
//
// Ring replaces the per-class buffered channels of the task service's
// submit path. It is a bounded multi-producer queue in the same per-slot
// probing family as internal/bqueue's SPSC B-queue: each slot carries a
// sequence number that encodes whose turn the slot is, so producers and
// consumers synchronize on the slot itself and the shared cursors are
// only claimed, never waited on (the Vyukov bounded-queue design). The
// consumer side is multi-consumer as well — any serving worker adopts
// from the ring, and a second-level balancer (core.MigrateQueuedJob)
// dequeues from it concurrently — so the ring is MPMC even though the
// dominant traffic pattern is many submitters, few adopters.
//
// Two things distinguish Ring from the textbook queue. First, the
// logical capacity is exact, not rounded to a power of two: the bound is
// enforced against the consumer cursor, so Config.Backlog keeps its
// precise backpressure meaning while the slot array is still
// mask-indexed. Second, EnqueueBatch reserves a whole group of slots
// with one CAS on the producer cursor, which is what makes a batched
// submission's queue traffic O(1) in the batch size.
//
// The queue itself never blocks; waiting is layered on top. Gate is a
// broadcast wakeup for a wait on a condition somebody else changes (a
// service's lifecycle), Bell a registry for consumers sleeping on an
// empty ring (the worker idle path): Bell.Ring wakes any one sleeper for work
// every consumer can take, Bell.Wake(id) wakes exactly consumer id for
// work pushed into queues only it polls. All are written so the fast
// path — nobody waiting — is a single atomic load.
package intake

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// CacheLine is the coherence granularity the padded layouts in this
// package assume (64 B on every amd64/arm64 part the paper targets).
const CacheLine = 64

// slot is one ring entry. seq encodes the slot's state: pos means free
// for the producer claiming position pos, pos+1 means occupied for the
// consumer claiming it, pos+capacity means freed for the producer one
// lap later.
type slot[T any] struct {
	seq atomic.Uint64
	val T
}

// Ring is the bounded lock-free MPMC intake queue. The zero value is not
// usable; construct with New. Ring is move-only (repolint:nocopy): a
// copy would alias the slot array under detached cursors.
type Ring[T any] struct {
	mask  uint64
	bound uint64
	slots []slot[T]

	// The cursors live on their own cache lines: head is write-hot for
	// producers, tail for consumers, and neither should invalidate the
	// other's line (or the read-mostly header above) on every operation.
	_    [8]uint64
	head atomic.Uint64
	_    [7]uint64
	tail atomic.Uint64
	_    [7]uint64
}

// New returns a ring holding at most bound items. The slot array is the
// next power of two, but the enqueue bound is exactly bound. The array
// never has fewer than two slots: with one, "occupied at p" (p+1) and
// "free for p+1" (p+1) are the same sequence number, so a producer could
// claim the slot while its consumer is still reading it.
func New[T any](bound int) *Ring[T] {
	if bound < 1 {
		panic("intake: ring bound must be >= 1")
	}
	capn := 2
	for capn < bound {
		capn <<= 1
	}
	r := &Ring[T]{mask: uint64(capn - 1), bound: uint64(bound), slots: make([]slot[T], capn)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the logical capacity (the construction bound).
func (r *Ring[T]) Cap() int { return int(r.bound) }

// Len returns the number of queued items. The two cursor loads are not
// atomic together, so under concurrency the result is a point-in-time
// approximation — exactly what the load signals feeding admission
// policies need, and all they ever had from len(chan).
func (r *Ring[T]) Len() int {
	h := r.head.Load()
	t := r.tail.Load()
	if h <= t {
		// h is loaded first, so a racing consumer can make t read newer
		// (larger) than h; clamp the tear to empty.
		return 0
	}
	return int(h - t)
}

// TryEnqueue appends v if the ring is below its bound, reporting whether
// it did. It never blocks; a false return is the backpressure signal the
// admission policy turns into waiting, rejection, or shedding.
func (r *Ring[T]) TryEnqueue(v T) bool {
	for {
		pos := r.head.Load()
		if pos-r.tail.Load() >= r.bound {
			return false
		}
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if r.head.CompareAndSwap(pos, pos+1) {
				s.val = v
				s.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			// The bound check said there is room, so the slot's previous
			// occupant has been claimed by a consumer that has not yet
			// published the release; yield to let it finish.
			runtime.Gosched()
		default:
			// Another producer claimed pos; reload the cursor.
		}
	}
}

// EnqueueBatch appends as many items of vs as fit under the bound and
// returns how many. The whole group is reserved with one CAS on the
// producer cursor — the per-batch cost that amortizes a batched
// submission — and then published slot by slot in order.
func (r *Ring[T]) EnqueueBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	for {
		pos := r.head.Load()
		free := int64(r.bound) - int64(pos-r.tail.Load())
		if free <= 0 {
			return 0
		}
		n := len(vs)
		if int64(n) > free {
			n = int(free)
		}
		if !r.head.CompareAndSwap(pos, pos+uint64(n)) {
			continue
		}
		for i := 0; i < n; i++ {
			p := pos + uint64(i)
			s := &r.slots[p&r.mask]
			// The bound check guarantees the previous occupant was
			// claimed; spin out its (brief) release window.
			for s.seq.Load() != p {
				runtime.Gosched()
			}
			s.val = vs[i]
			s.seq.Store(p + 1)
		}
		return n
	}
}

// TryDequeue removes and returns the oldest item, or reports false when
// the ring is empty (or every queued item is still mid-publish).
func (r *Ring[T]) TryDequeue() (T, bool) {
	var zero T
	for {
		pos := r.tail.Load()
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		diff := int64(seq) - int64(pos+1)
		switch {
		case diff == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				v := s.val
				s.val = zero
				s.seq.Store(pos + r.mask + 1)
				return v, true
			}
		case diff < 0:
			return zero, false
		default:
			// Stale tail; reload.
		}
	}
}

// Gate is the broadcast wakeup of a wait for a condition somebody else
// changes. A waiter arms the gate (Arm, which returns the channel the
// next Wake closes), re-checks its condition, and only then blocks on
// the channel; a waker changes the condition and then calls Wake. Arm's
// store of the armed flag is sequenced before the re-check, and the
// change before Wake's load of it, so either the re-check sees the
// change or Wake sees the flag and closes the channel the waiter holds.
// Wake closes, re-makes and disarms: one sleep episode costs one close
// and one make however many waiters it releases, and every Wake until
// somebody arms again is a single atomic load — which keeps it free on
// the consumer fast path. A waiter woken to a condition that still does
// not hold arms again.
//
// Gate is move-only (repolint:nocopy): a copy would broadcast on a
// stale channel. armed sits alone on its cache line because every
// consumer-side Wake loads it — an unpadded flag would drag the
// waiter-side mu/ch writes into those reads' line (falseshare).
type Gate struct {
	armed atomic.Bool
	_     [CacheLine - 4]byte
	mu    sync.Mutex
	ch    chan struct{}
}

// NewGate returns a gate nobody waits on.
func NewGate() *Gate { return &Gate{ch: make(chan struct{})} }

// Arm registers the caller as a waiter and returns the channel the next
// Wake closes. Call it before re-checking the wait condition (see the
// type comment's ordering argument), once per re-check.
func (g *Gate) Arm() <-chan struct{} {
	g.mu.Lock()
	g.armed.Store(true)
	ch := g.ch
	g.mu.Unlock()
	return ch
}

// Wake releases every waiter that armed since the last Wake (close
// broadcasts), and reports whether there was one to release.
func (g *Gate) Wake() bool {
	if !g.armed.Load() {
		return false
	}
	g.mu.Lock()
	armed := g.armed.Load()
	if armed { // else a racing Wake already released them
		close(g.ch)
		g.ch = make(chan struct{})
		g.armed.Store(false)
	}
	g.mu.Unlock()
	return armed
}

// Bell is the wake-one registry idle consumers sleep on: a worker that
// has found every queue empty registers, re-checks for work (the Dekker
// step that pairs with a producer's publish-then-announce order), and
// blocks on its token channel. Producers announce in one of two ways: a
// producer that enqueued work any consumer can take rings the bell
// (Ring/RingMany), which pops one sleeper and hands it a token; a
// producer that placed work only consumer id can reach wakes exactly
// that consumer (Wake). While nobody sleeps — the loaded steady state —
// Ring is one atomic load and no lock, and so is Wake while id is awake.
//
// Bell is move-only (repolint:nocopy). sleepers is padded for the same
// reason as Gate.armed: it is loaded on every producer Ring call and
// must not share a line with the registry the sleepers mutate; each
// consumer's asleep flag, loaded on every directed Wake, has a line of
// its own for the same reason.
type Bell struct {
	sleepers atomic.Int32
	_        [CacheLine - 4]byte
	mu       sync.Mutex
	ids      []int
	tokens   []chan struct{}
	slots    []bellSlot
}

// bellSlot is one consumer's asleep flag: set by Sleep, cleared by
// whoever deregisters the consumer (Cancel, a Ring that pops it, Wake),
// always under Bell.mu, and read lock-free by Wake's fast path.
type bellSlot struct {
	asleep atomic.Bool
	_      [CacheLine - 4]byte
}

// NewBell returns a bell for consumer ids [0, n).
func NewBell(n int) *Bell {
	b := &Bell{ids: make([]int, 0, n), tokens: make([]chan struct{}, n), slots: make([]bellSlot, n)}
	for i := range b.tokens {
		b.tokens[i] = make(chan struct{}, 1)
	}
	return b
}

// Chan returns consumer id's token channel to select on while sleeping.
func (b *Bell) Chan(id int) <-chan struct{} { return b.tokens[id] }

// Sleep registers consumer id as sleeping. The caller must re-check its
// work sources after Sleep returns and before blocking on Chan(id):
// Sleep's registration is sequenced before the re-check, and a
// producer's publish before its Ring or Wake, so either the re-check
// sees the work or the announcement sees the sleeper.
func (b *Bell) Sleep(id int) {
	b.mu.Lock()
	b.ids = append(b.ids, id)
	b.sleepers.Store(int32(len(b.ids)))
	b.slots[id].asleep.Store(true)
	b.mu.Unlock()
}

// Cancel deregisters consumer id after a re-check that found work, and
// drains a token that may have raced in. A consumer woken through Chan
// needs no Cancel: whoever sent its token deregistered it.
func (b *Bell) Cancel(id int) {
	b.mu.Lock()
	b.removeLocked(id)
	b.mu.Unlock()
	select {
	case <-b.tokens[id]:
	default:
	}
}

// removeLocked deregisters id if it is registered, reporting whether it
// was. Callers hold mu.
func (b *Bell) removeLocked(id int) bool {
	for i, v := range b.ids {
		if v == id {
			b.ids = append(b.ids[:i], b.ids[i+1:]...)
			b.sleepers.Store(int32(len(b.ids)))
			b.slots[id].asleep.Store(false)
			return true
		}
	}
	return false
}

// Ring wakes one sleeping consumer, if any.
func (b *Bell) Ring() {
	if b.sleepers.Load() == 0 {
		return
	}
	b.ringLocked(1)
}

// RingMany wakes up to n sleeping consumers — the batch-enqueue wake.
func (b *Bell) RingMany(n int) {
	if n <= 0 || b.sleepers.Load() == 0 {
		return
	}
	b.ringLocked(n)
}

// RingAll wakes every sleeping consumer (service shutdown).
func (b *Bell) RingAll() {
	if b.sleepers.Load() == 0 {
		return
	}
	b.ringLocked(len(b.tokens))
}

// Wake wakes consumer id if it is sleeping — the announcement of a
// producer whose work only id can reach (a push into id's own queues).
// It is a no-op, one atomic load of id's own line, while id is awake;
// an awake id is never handed a token, so nothing leaks into its next
// Sleep.
func (b *Bell) Wake(id int) {
	if !b.slots[id].asleep.Load() {
		return
	}
	b.mu.Lock()
	if b.removeLocked(id) {
		b.token(id)
	}
	b.mu.Unlock()
}

// token hands consumer id its wake token (at most one is ever pending).
// Callers hold mu.
func (b *Bell) token(id int) {
	select {
	case b.tokens[id] <- struct{}{}:
	default:
	}
}

func (b *Bell) ringLocked(n int) {
	b.mu.Lock()
	if k := len(b.ids); k > 0 {
		if n > k {
			n = k
		}
		// Pop the most recent sleepers: they are the most likely to
		// still have a warm cache, and the slice op is allocation-free.
		wake := b.ids[k-n:]
		b.ids = b.ids[:k-n]
		b.sleepers.Store(int32(len(b.ids)))
		for _, id := range wake {
			b.slots[id].asleep.Store(false)
			b.token(id)
		}
	}
	b.mu.Unlock()
}
