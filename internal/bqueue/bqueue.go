// Package bqueue implements B-queue, the single-producer single-consumer
// lock-free ring the paper's XQueue is built from (§II-B).
//
// B-queue (Wang et al.) avoids the shared head/tail control variables of a
// classic Lamport ring: the producer and consumer each keep private cursors
// and discover progress by probing slot contents in batches. A slot holding
// nil is empty; a non-nil pointer is a ready item. Because the producer
// fills slots in strictly increasing order and the consumer clears them in
// the same order, observing one slot at distance k proves the state of all
// slots in between, which is what makes batched probing sound.
//
// The only synchronization is the atomic load/store of each slot pointer —
// no compare-and-swap, no fetch-add — matching the paper's "lock-less"
// discipline, with per-operation latencies dominated by a single cache-line
// transfer.
package bqueue

import "sync/atomic"

// DefaultBatch is the default probe distance. Larger batches amortize
// cache-line transfers between producer and consumer but make near-full and
// near-empty detection coarser.
const DefaultBatch = 16

// Queue is a bounded SPSC lock-free queue of *T. Exactly one goroutine may
// call Enqueue (the producer) and exactly one may call Dequeue/Empty (the
// consumer); the two may run concurrently.
type Queue[T any] struct {
	// Producer-owned state, padded onto its own cache lines.
	head      uint32
	batchHead uint32
	pBatch    uint32
	_         [13]uint64

	// Consumer-owned state.
	tail      uint32
	batchTail uint32
	cBatch    uint32
	_         [13]uint64

	mask uint32
	buf  []atomic.Pointer[T]
}

// New returns a queue with the given capacity, which must be a power of two
// and at least 2. The probe batch is min(DefaultBatch, capacity/2).
func New[T any](capacity int) *Queue[T] {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		panic("bqueue: capacity must be a power of two and >= 2")
	}
	batch := uint32(DefaultBatch)
	if half := uint32(capacity / 2); batch > half {
		batch = half
	}
	return &Queue[T]{
		mask:   uint32(capacity - 1),
		pBatch: batch,
		cBatch: batch,
		buf:    make([]atomic.Pointer[T], capacity),
	}
}

// Enqueue appends v and reports success; it returns false when the queue is
// full. v must be non-nil (nil is the empty-slot marker). Producer-only.
func (q *Queue[T]) Enqueue(v *T) bool {
	if v == nil {
		panic("bqueue: Enqueue(nil)")
	}
	if q.head == q.batchHead {
		// Probe ahead: find the largest batch whose last slot is already
		// empty. Monotone clearing by the consumer guarantees every slot
		// before it is empty too.
		batch := q.pBatch
		for q.buf[(q.head+batch-1)&q.mask].Load() != nil {
			batch >>= 1
			if batch == 0 {
				return false // even buf[head] is still occupied
			}
		}
		q.batchHead = q.head + batch
	}
	q.buf[q.head&q.mask].Store(v)
	q.head++
	return true
}

// Dequeue removes and returns the oldest item, or nil when the queue is
// empty. Consumer-only.
func (q *Queue[T]) Dequeue() *T {
	if q.tail == q.batchTail {
		// Monotone filling by the producer makes the head slot definitive:
		// nil there means nothing behind it either, so an empty queue costs
		// its poller one load of one line.
		if q.buf[q.tail&q.mask].Load() == nil {
			return nil
		}
		// Backtracking probe: find the largest batch whose last slot is
		// already filled; every slot before it is filled too. It stops at
		// the head slot at the latest — only this consumer clears it.
		batch := q.cBatch
		for q.buf[(q.tail+batch-1)&q.mask].Load() == nil {
			batch >>= 1
		}
		q.batchTail = q.tail + batch
	}
	slot := &q.buf[q.tail&q.mask]
	v := slot.Load()
	slot.Store(nil)
	q.tail++
	return v
}

// Empty reports whether the next slot to consume is empty. Consumer-only.
// A false result is definite (an item is ready); a true result may race
// with a concurrent Enqueue, which is inherent to any emptiness check.
func (q *Queue[T]) Empty() bool {
	return q.buf[q.tail&q.mask].Load() == nil
}

// ProbeFull reports whether an Enqueue would currently fail. Producer-only.
func (q *Queue[T]) ProbeFull() bool {
	if q.head != q.batchHead {
		return false // room reserved by a previous probe
	}
	return q.buf[q.head&q.mask].Load() != nil
}
