package core

import (
	"slices"
	"sync/atomic"
)

// sink is where a subscribed job goes when it completes: a channel or an
// Outbox, exactly one of them set (Subscribe, SubscribeTo).
type sink struct {
	ch  chan *Job
	box *Outbox
}

// deliver hands a finished job to its receiver; it is the deliverer's last
// touch on the frame.
func (s sink) deliver(j *Job) {
	if s.box != nil {
		s.box.push(j)
		return
	}
	s.ch <- j
}

// Outbox collects finished jobs for one receiver: any number of completing
// workers push, one goroutine takes. The jobs themselves are the queue — a
// Treiber stack through Job.next — so a delivery is one CAS whatever the
// number in flight, and nothing is sized to a window. Only the push that
// found the box empty posts a token on Note, so the receiver pays one
// wake-up per drain, not per job. The only removal is Take's Swap of the
// whole chain, which is why the CAS needs no ABA guard: a pusher's stale
// head can reappear only after a Take, and a Take leaves nil.
//
// head is the one word every completing worker and the receiver write, so
// it has its cache line to itself.
type Outbox struct {
	note chan struct{} // capacity 1
	_    [7]uint64
	head atomic.Pointer[Job]
	_    [7]uint64
}

// NewOutbox returns an empty outbox.
func NewOutbox() *Outbox { return &Outbox{note: make(chan struct{}, 1)} }

// Note is the receiver's wake-up: a token arrives after the box goes from
// empty to non-empty. A token says "Take now", not how much there is: a
// Take between a push and its token finds that token's jobs early, and the
// token then announces an empty box.
func (ob *Outbox) Note() <-chan struct{} { return ob.note }

func (ob *Outbox) push(j *Job) {
	for {
		old := ob.head.Load()
		j.next = old
		if !ob.head.CompareAndSwap(old, j) {
			continue
		}
		// j is the receiver's from here; only ob may be touched.
		if old == nil {
			select {
			case ob.note <- struct{}{}:
			default: // an unread token already says so
			}
		}
		return
	}
}

// Take appends every job delivered so far to dst, oldest first, and leaves
// the box empty. Receiver only.
func (ob *Outbox) Take(dst []*Job) []*Job {
	if ob.head.Load() == nil {
		return dst
	}
	at := len(dst)
	for j := ob.head.Swap(nil); j != nil; j = j.next { // recycle clears the links
		dst = append(dst, j)
	}
	slices.Reverse(dst[at:])
	return dst
}
