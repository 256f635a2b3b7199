// Fixture for the pooledescape analyzer. Every finding here is
// invisible to go vet: leaking a pooled value is perfectly legal Go.
package a

import (
	"internal/alloc"
	"internal/core"
)

type job struct {
	id int
}

func discard(p *alloc.BufPool) {
	p.Get(64) // want `result of Get is discarded`
}

func blank(p *alloc.BufPool) {
	_ = p.Get(64) // want `result of Get is assigned to _`
}

func leaks(p *alloc.BufPool) int {
	b := p.Get(64) // want `leaks on every path`
	b = append(b, 1)
	return len(b)
}

func early(p *alloc.BufPool, n int) int {
	b := p.Get(64)
	if n < 0 {
		return -1 // want `return path drops the pooled value`
	}
	b = append(b, byte(n))
	n += len(b)
	p.Put(b)
	return n
}

func deferred(p *alloc.BufPool, n int) int {
	b := p.Get(64)
	defer p.Put(b)
	if n < 0 {
		return -1 // covered: the deferred Put precedes this return
	}
	return len(b)
}

func transfer(p *alloc.BufPool) []byte {
	b := p.Get(64)
	return b // ownership moves to the caller: no finding
}

func nested(p *alloc.BufPool) []byte {
	return p.Get(64) // direct transfer: no finding
}

func fieldStore(p *alloc.BufPool, dst *struct{ buf []byte }) {
	dst.buf = p.Get(64) // ownership moves into dst: no finding
}

func sharedLeak(l *alloc.Level[job], w int) int {
	j := l.GetShared(w) // want `pooled value from GetShared`
	j.id = 1
	return j.id
}

func sharedOK(l *alloc.Level[job], w int) int {
	j := l.GetShared(w)
	j.id = 2
	id := j.id
	l.PutShared(w, j)
	return id
}

func stash(p *alloc.BufPool) {
	b := p.Get(64) //repolint:ok pooledescape — released by the connection finalizer in the real shape
	b = append(b, 0)
	_ = len(b)
}

func intoOutbox(l *alloc.Level[core.Job], ob *core.Outbox, w int) {
	j := l.GetShared(w)
	ob.Push(j) // the chain holds the frame now: no finding
}

func takeDiscard(ob *core.Outbox) {
	ob.Take(nil) // want `result of Outbox.Take is discarded`
}

func takeLeaks(ob *core.Outbox) int {
	jobs := ob.Take(nil) // want `pooled value from Outbox.Take`
	return len(jobs)
}

func takeReleased(ob *core.Outbox, scratch []*core.Job) []*core.Job {
	jobs := ob.Take(scratch[:0])
	core.ReleaseJobs(jobs) // handed on with the duty: no finding
	return scratch
}

func takeRunPut(l *alloc.Level[core.Job], ob *core.Outbox, w int) {
	jobs := ob.Take(nil)
	l.PutSharedRun(w, jobs)
}
