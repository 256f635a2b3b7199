// Package alloc provides the two task-descriptor allocation models whose
// contrast explains the GOMP-vs-LOMP crossover in the paper's evaluation
// (§VI-A): a contended, globally locked allocator standing in for glibc
// malloc as used by GNU OpenMP, and a multi-level allocator modelled on the
// LLVM OpenMP fast allocator (thread-local buffer, then synchronously
// acquiring a buffer from another thread, then falling back to the global
// path).
//
// Go's built-in allocator has per-P caches that would hide exactly the
// contention effect the paper measures, so task descriptors are recycled
// through these explicit pools instead. Pools are generic over the task
// type to keep the runtime package free of unsafe casts.
package alloc

import "sync"

// Allocator hands out and recycles task descriptors. Get and Put are called
// from worker goroutines identified by their worker id.
type Allocator[T any] interface {
	// Get returns a descriptor for worker w to initialize. The descriptor
	// may be recycled and must be fully overwritten by the caller.
	Get(w int) *T
	// Put recycles a descriptor that worker w finished with.
	Put(w int, t *T)
	// Stats reports allocator-level counters.
	Stats() Stats
}

// Stats are allocation-path counters, mirroring the paper's discussion of
// how often each allocation method is exercised.
type Stats struct {
	// FreshAllocs counts descriptors obtained from the Go heap.
	FreshAllocs uint64
	// LocalHits counts Gets served from a thread-local buffer
	// (multi-level method i; always zero for the contended allocator).
	LocalHits uint64
	// RemoteAcquires counts buffer chunks acquired from another thread
	// (multi-level method ii).
	RemoteAcquires uint64
	// GlobalHits counts Gets served from the shared free list under the
	// global lock.
	GlobalHits uint64
}

// Contended is the malloc model used by the GOMP presets: every Get and Put
// takes one global mutex, serializing allocation exactly the way the paper
// describes thread-contended malloc behaving for fine-grained tasks.
type Contended[T any] struct {
	mu    sync.Mutex
	free  []*T
	stats Stats
}

// NewContended returns an empty contended allocator.
func NewContended[T any]() *Contended[T] {
	return &Contended[T]{}
}

// Get implements Allocator.
func (a *Contended[T]) Get(int) *T {
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		t := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.stats.GlobalHits++
		a.mu.Unlock()
		return t
	}
	a.stats.FreshAllocs++
	a.mu.Unlock()
	return new(T)
}

// Put implements Allocator.
func (a *Contended[T]) Put(_ int, t *T) {
	a.mu.Lock()
	a.free = append(a.free, t)
	a.mu.Unlock()
}

// Stats implements Allocator.
func (a *Contended[T]) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// chunkSize is the number of descriptors handed between allocator levels at
// a time in the multi-level allocator.
const chunkSize = 32

// localCacheMax bounds a worker's private free list; beyond it, a chunk is
// returned to the shared level so one worker cannot hoard every descriptor
// (LOMP's buffer "stealing" keeps memory circulating similarly).
const localCacheMax = 4 * chunkSize

// MultiLevel is the LOMP fast-allocator model used by the LOMP and XLOMP
// presets. Get tries, in order: (i) the calling worker's private free list
// — the common, synchronization-free case for fine-grained tasks; (ii) a
// chunk acquired from another worker's shared spill area under that
// worker's lock — synchronous but locality-agnostic, matching the paper's
// description; (iii) a fresh heap allocation.
type MultiLevel[T any] struct {
	workers []mlWorker[T]
	// statsMu guards the aggregate fresh-alloc counter only; the per-worker
	// counters are owner-written and folded in Stats.
	statsMu sync.Mutex
	fresh   uint64
}

type mlWorker[T any] struct {
	// local is owner-only: no lock needed.
	local []*T
	// spill is the shared level: other workers may take chunks from it.
	mu    sync.Mutex
	spill []*T

	localHits      uint64
	remoteAcquires uint64
	globalHits     uint64
	// sharedHits counts GetShared hits; written under mu (the shared
	// entry points have no owner), folded into GlobalHits by Stats.
	sharedHits uint64
	_          [8]uint64 // pad
}

// sharedSpillMax bounds a lane's spill list for PutSharedRun: beyond it
// returned descriptors are dropped to the GC, so slow releasers cannot
// grow a lane without bound.
const sharedSpillMax = 8 * chunkSize

// GetSharedRun fills dst with descriptors from lane w's spill level under
// one lane lock — the externally safe entry for goroutines that are not
// the lane's owning worker (job frames drawn at the submit edge, a batch
// at a time). It never touches the owner-only local list; what the spill
// cannot cover is freshly allocated.
func (a *MultiLevel[T]) GetSharedRun(w int, dst []*T) {
	me := &a.workers[w]
	me.mu.Lock()
	n := min(len(me.spill), len(dst))
	rest := len(me.spill) - n
	copy(dst, me.spill[rest:])
	clear(me.spill[rest:])
	me.spill = me.spill[:rest]
	me.sharedHits += uint64(n)
	me.mu.Unlock()
	if n == len(dst) {
		return
	}
	for i := n; i < len(dst); i++ {
		dst[i] = new(T)
	}
	a.statsMu.Lock()
	a.fresh += uint64(len(dst) - n)
	a.statsMu.Unlock()
}

// GetShared is GetSharedRun for one descriptor.
func (a *MultiLevel[T]) GetShared(w int) *T {
	var one [1]*T
	a.GetSharedRun(w, one[:])
	return one[0]
}

// PutSharedRun recycles ts into lane w's spill level under one lane lock,
// the externally safe counterpart of GetSharedRun. Past sharedSpillMax
// descriptors are dropped instead (bounded pool).
func (a *MultiLevel[T]) PutSharedRun(w int, ts []*T) {
	me := &a.workers[w]
	me.mu.Lock()
	if room := sharedSpillMax - len(me.spill); room > 0 {
		me.spill = append(me.spill, ts[:min(room, len(ts))]...)
	}
	me.mu.Unlock()
}

// PutShared is PutSharedRun for one descriptor.
func (a *MultiLevel[T]) PutShared(w int, t *T) {
	one := [1]*T{t}
	a.PutSharedRun(w, one[:])
}

// NewMultiLevel returns a multi-level allocator for workers workers.
func NewMultiLevel[T any](workers int) *MultiLevel[T] {
	if workers <= 0 {
		panic("alloc: NewMultiLevel requires workers > 0")
	}
	return &MultiLevel[T]{workers: make([]mlWorker[T], workers)}
}

// Get implements Allocator.
func (a *MultiLevel[T]) Get(w int) *T {
	me := &a.workers[w]
	// (i) thread-local buffer.
	if n := len(me.local); n > 0 {
		t := me.local[n-1]
		me.local[n-1] = nil
		me.local = me.local[:n-1]
		me.localHits++
		return t
	}
	// (ii) my own spill area, then other workers' spill areas.
	if a.refillFrom(w, w) {
		me.globalHits++
		return a.Get(w)
	}
	for off := 1; off < len(a.workers); off++ {
		v := (w + off) % len(a.workers)
		if a.refillFrom(w, v) {
			me.remoteAcquires++
			return a.Get(w)
		}
	}
	// (iii) fresh allocation.
	a.statsMu.Lock()
	a.fresh++
	a.statsMu.Unlock()
	return new(T)
}

// refillFrom moves up to chunkSize descriptors from v's spill area into w's
// local list, reporting whether anything moved.
func (a *MultiLevel[T]) refillFrom(w, v int) bool {
	src := &a.workers[v]
	src.mu.Lock()
	n := len(src.spill)
	if n == 0 {
		src.mu.Unlock()
		return false
	}
	take := chunkSize
	if take > n {
		take = n
	}
	moved := src.spill[n-take:]
	me := &a.workers[w]
	me.local = append(me.local, moved...)
	for i := range moved {
		moved[i] = nil
	}
	src.spill = src.spill[:n-take]
	src.mu.Unlock()
	return true
}

// Put implements Allocator.
func (a *MultiLevel[T]) Put(w int, t *T) {
	me := &a.workers[w]
	me.local = append(me.local, t)
	if len(me.local) >= localCacheMax {
		// Spill one chunk to the shared level.
		cut := len(me.local) - chunkSize
		chunk := me.local[cut:]
		me.mu.Lock()
		me.spill = append(me.spill, chunk...)
		me.mu.Unlock()
		for i := range chunk {
			chunk[i] = nil
		}
		me.local = me.local[:cut]
	}
}

// Stats implements Allocator. It must not race with Get/Put on the
// per-worker counters; call it only when workers are quiescent.
func (a *MultiLevel[T]) Stats() Stats {
	a.statsMu.Lock()
	s := Stats{FreshAllocs: a.fresh}
	a.statsMu.Unlock()
	for i := range a.workers {
		w := &a.workers[i]
		s.LocalHits += w.localHits
		s.RemoteAcquires += w.remoteAcquires
		w.mu.Lock()
		shared := w.sharedHits
		w.mu.Unlock()
		s.GlobalHits += w.globalHits + shared
	}
	return s
}
