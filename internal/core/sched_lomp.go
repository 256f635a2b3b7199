package core

import "repro/internal/rng"

// lompSched models the LLVM OpenMP tasking substrate: one Chase–Lev deque
// per worker, owner-local push/pop, and pull-based random work stealing
// with CAS — the lock-free (but not lock-less) design the paper contrasts
// XQueue against.
type lompSched struct {
	deques []*clDeque
	// stealRNG[w] drives worker w's random victim selection; owner-only.
	stealRNG []rng.State
	_        [8]uint64
}

var _ scheduler = (*lompSched)(nil)

func newLompSched(workers, capacity int, seed int64) *lompSched {
	s := &lompSched{
		deques:   make([]*clDeque, workers),
		stealRNG: make([]rng.State, workers),
	}
	for i := range s.deques {
		s.deques[i] = newCLDeque(capacity)
		s.stealRNG[i] = rng.New(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 0x51)
	}
	return s
}

// push reports target -1: the task sits in w's deque, but any worker's
// pop may steal it, so the announcement goes to whoever sleeps.
func (s *lompSched) push(w int, t *Task) (int, bool) {
	return -1, s.deques[w].pushBottom(t)
}

// pushTo ignores the directed target: a Chase–Lev deque only admits pushes
// from its owner, so directed placement degrades to a local push. The DLB
// strategies are rejected for this substrate at configuration time.
func (s *lompSched) pushTo(from, _ int, t *Task) bool {
	return s.deques[from].pushBottom(t)
}

func (s *lompSched) pop(w int) *Task {
	if t := s.deques[w].popBottom(); t != nil {
		return t
	}
	// Pull-based random stealing: up to 2N probes before reporting empty,
	// mirroring the bounded steal attempts of production runtimes.
	n := len(s.deques)
	if n == 1 {
		return nil
	}
	r := &s.stealRNG[w]
	for attempt := 0; attempt < 2*n; attempt++ {
		v := r.Intn(n)
		if v == w {
			continue
		}
		if t := s.deques[v].stealTop(); t != nil {
			return t
		}
	}
	return nil
}

func (s *lompSched) popLocal(w int) *Task { return s.deques[w].popBottom() }

func (s *lompSched) empty(w int) bool { return s.deques[w].emptyApprox() }

func (s *lompSched) targetFull(from, _ int) bool {
	d := s.deques[from]
	return d.bottom.Load()-d.top.Load() > d.mask
}
