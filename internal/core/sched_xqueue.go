package core

import "repro/internal/xqueue"

// xqSched adapts the lock-less XQueue matrix to the scheduler interface.
// Unlike lompSched, pop never steals: redistribution is either the static
// round-robin placement done at push time or an explicit DLB migration.
type xqSched struct {
	x *xqueue.XQueue[Task]
}

var _ scheduler = (*xqSched)(nil)

func newXQSched(workers, capacity int) *xqSched {
	return &xqSched{x: xqueue.New[Task](workers, capacity)}
}

func (s *xqSched) push(w int, t *Task) (int, bool)   { return s.x.Push(w, t) }
func (s *xqSched) pushTo(from, to int, t *Task) bool { return s.x.PushTo(from, to, t) }
func (s *xqSched) pop(w int) *Task                   { return s.x.Pop(w) }
func (s *xqSched) popLocal(w int) *Task              { return s.x.Pop(w) }
func (s *xqSched) empty(w int) bool                  { return s.x.Empty(w) }
func (s *xqSched) targetFull(from, to int) bool      { return s.x.TargetFull(from, to) }
