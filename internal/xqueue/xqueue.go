// Package xqueue implements XQueue, the lock-less relaxed-order MPMC
// queuing fabric from the paper (§II-B, Fig. 2).
//
// For a team of N workers, worker i owns N single-producer single-consumer
// queues: one master queue that i both produces to and consumes from, and
// one auxiliary B-queue per other worker j, to which only j produces and
// only i consumes. Every (producer, consumer) pair therefore has a
// dedicated SPSC channel and no queue ever sees two producers or two
// consumers — MPMC behaviour emerges from the matrix, not from shared
// synchronization. The master queue has one goroutine at both ends, so it
// is a plain ring with no atomics at all; the auxiliary queues cross
// workers and pay B-queue's atomic slot hand-off.
//
// Placement is the paper's static load balancer: each producer round-robins
// over the N consumers starting with itself; when the chosen queue is full
// the producer signals the caller to execute the task immediately instead
// of retrying elsewhere. Consumption prefers the master queue and then
// scans the auxiliary queues.
package xqueue

import "repro/internal/bqueue"

type pad64 [8]uint64

// cursor is a per-worker round-robin position, padded so that the cursors
// of adjacent workers do not share a cache line.
type cursor struct {
	v int
	_ pad64
}

// ring is a master queue: a bounded FIFO that only its owner ever touches,
// as producer and as consumer, so its cursors and slots are plain words.
// It accepts exactly capacity items, as a B-queue of that capacity does.
type ring[T any] struct {
	head uint32 // next slot to write
	tail uint32 // next slot to read
	mask uint32
	buf  []*T
	_    pad64 // keeps adjacent workers' rings off one cache line
}

func (r *ring[T]) push(v *T) bool {
	if r.head-r.tail > r.mask {
		return false
	}
	r.buf[r.head&r.mask] = v
	r.head++
	return true
}

func (r *ring[T]) pop() *T {
	if r.head == r.tail {
		return nil
	}
	slot := &r.buf[r.tail&r.mask]
	v := *slot
	*slot = nil
	r.tail++
	return v
}

func (r *ring[T]) empty() bool { return r.head == r.tail }

func (r *ring[T]) full() bool { return r.head-r.tail > r.mask }

// XQueue is the queue matrix for a fixed team of workers. Methods taking a
// producer index must be called only from that worker; methods taking a
// consumer index only from that worker.
type XQueue[T any] struct {
	n int
	// own[c] is consumer c's master queue, c → c.
	own []ring[T]
	// qs[consumer][producer]: the auxiliary queues, producer writes,
	// consumer reads. qs[c][c] is nil: that pair is own[c].
	qs [][]*bqueue.Queue[T]
	// pushCur[p]: next round-robin offset for producer p (producer-owned).
	pushCur []cursor
	// scanCur[c]: next auxiliary producer to scan for consumer c
	// (consumer-owned).
	scanCur []cursor
}

// New builds the matrix for workers workers with per-queue capacity
// capacity (a power of two, >= 2). Memory is O(workers² × capacity).
func New[T any](workers, capacity int) *XQueue[T] {
	if workers <= 0 {
		panic("xqueue: workers must be positive")
	}
	if capacity < 2 || capacity&(capacity-1) != 0 {
		panic("xqueue: capacity must be a power of two and >= 2")
	}
	x := &XQueue[T]{
		n:       workers,
		own:     make([]ring[T], workers),
		qs:      make([][]*bqueue.Queue[T], workers),
		pushCur: make([]cursor, workers),
		scanCur: make([]cursor, workers),
	}
	for c := 0; c < workers; c++ {
		x.qs[c] = make([]*bqueue.Queue[T], workers)
		for p := 0; p < workers; p++ {
			if p != c {
				x.qs[c][p] = bqueue.New[T](capacity)
			}
		}
		x.own[c] = ring[T]{mask: uint32(capacity - 1), buf: make([]*T, capacity)}
	}
	return x
}

// Push places v with the static round-robin balancer on behalf of producer
// p. It returns the chosen consumer and whether the enqueue succeeded; on
// ok == false (chosen queue full) the caller must execute v immediately,
// per the paper's overflow rule.
func (x *XQueue[T]) Push(p int, v *T) (target int, ok bool) {
	cur := &x.pushCur[p]
	target = p + cur.v
	if target >= x.n {
		target -= x.n
	}
	cur.v++
	if cur.v == x.n {
		cur.v = 0
	}
	return target, x.PushTo(p, target, v)
}

// PushTo enqueues v into consumer c's queue owned by producer p, reporting
// success. This is the directed placement used by the DLB strategies: a
// victim redirects or migrates tasks straight into the thief's queue while
// preserving the single-producer discipline.
func (x *XQueue[T]) PushTo(p, c int, v *T) bool {
	if p == c {
		return x.own[c].push(v)
	}
	return x.qs[c][p].Enqueue(v)
}

// Pop dequeues the next task for consumer c: the master queue first, then
// the auxiliary queues in a rotating scan so no producer is starved. It
// returns nil when every queue appears empty.
func (x *XQueue[T]) Pop(c int) *T {
	if v := x.own[c].pop(); v != nil {
		return v
	}
	row := x.qs[c]
	cur := &x.scanCur[c]
	p := cur.v
	for i := 0; i < x.n; i++ {
		if p >= x.n {
			p = 0
		}
		if p != c {
			if v := row[p].Dequeue(); v != nil {
				// Resume at the same producer next time to drain it in
				// batches before moving on.
				cur.v = p
				return v
			}
		}
		p++
	}
	return nil
}

// Empty reports whether all of consumer c's queues currently look empty.
// Consumer-only; a true result can race with concurrent pushes, which is
// inherent and tolerated by the barrier's authoritative quiescence check.
func (x *XQueue[T]) Empty(c int) bool {
	if !x.own[c].empty() {
		return false
	}
	for p, q := range x.qs[c] {
		if p != c && !q.Empty() {
			return false
		}
	}
	return true
}

// TargetFull reports whether producer p's queue into consumer c would
// reject an enqueue right now. Producer-only (for p).
func (x *XQueue[T]) TargetFull(p, c int) bool {
	if p == c {
		return x.own[c].full()
	}
	return x.qs[c][p].ProbeFull()
}
