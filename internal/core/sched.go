package core

// scheduler is the task-queue substrate. Methods taking a worker id must be
// called from that worker's goroutine, preserving the single-producer /
// single-consumer discipline the lock-less substrates rely on.
type scheduler interface {
	// push places t using the substrate's static balancer on behalf of
	// worker w. It returns the worker whose queues now hold the task —
	// negative when any worker can take it (GOMP's shared queue, LOMP's
	// stealable deques) — and whether the enqueue succeeded; on ok ==
	// false the caller must execute t immediately (XQueue's overflow
	// rule). Call it through Worker.push, which announces the task.
	push(w int, t *Task) (target int, ok bool)
	// pushTo places t directly into worker to's queue on behalf of worker
	// from (used by the DLB strategies). Substrates without directed
	// placement fall back to push. Call it through Worker.pushTo.
	pushTo(from, to int, t *Task) bool
	// pop returns the next task for worker w, or nil. Substrates with
	// built-in stealing (LOMP) may take work from other workers here.
	pop(w int) *Task
	// popLocal returns the next task from w's own queues only, never
	// stealing. The NA-WS victim path uses it to migrate queued tasks.
	popLocal(w int) *Task
	// empty reports whether w's own queues look empty.
	empty(w int) bool
	// targetFull reports whether a pushTo(from, to, ·) would currently
	// fail.
	targetFull(from, to int) bool
}

// gompSched is GNU OpenMP's tasking substrate: one globally shared task
// queue, protected by a single global task lock that every scheduling
// operation must take (§II-A). It is GNU's priority queue with every task
// at the default priority, so FIFO. The lock is a spinMutex to
// match libgomp's actively spinning gomp_mutex. The team task count lives
// behind the same lock, as in libgomp, so gompSched also implements
// taskCounter.
type gompSched struct {
	mu    spinMutex
	head  *Task
	tail  *Task
	count int64
}

var (
	_ scheduler   = (*gompSched)(nil)
	_ taskCounter = (*gompSched)(nil)
)

func newGompSched() *gompSched { return &gompSched{} }

// push appends t at the tail.
func (s *gompSched) push(w int, t *Task) (int, bool) {
	s.mu.Lock()
	if s.head == nil {
		s.head = t
	} else {
		s.tail.next = t
	}
	s.tail = t
	s.mu.Unlock()
	return -1, true
}

func (s *gompSched) pushTo(from, _ int, t *Task) bool {
	_, ok := s.push(from, t)
	return ok
}

func (s *gompSched) pop(int) *Task {
	s.mu.Lock()
	t := s.head
	if t != nil {
		s.head = t.next
		if s.head == nil {
			s.tail = nil
		}
		t.next = nil
	}
	s.mu.Unlock()
	return t
}

func (s *gompSched) popLocal(w int) *Task { return s.pop(w) }

func (s *gompSched) empty(int) bool {
	s.mu.Lock()
	e := s.head == nil
	s.mu.Unlock()
	return e
}

func (s *gompSched) targetFull(_, _ int) bool { return false }

// created/finished/quiescent implement taskCounter behind the global lock,
// mirroring libgomp's team->task_count handling.
func (s *gompSched) created(int) {
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
}

func (s *gompSched) finished(int) {
	s.mu.Lock()
	s.count--
	s.mu.Unlock()
}

func (s *gompSched) quiescent() bool {
	s.mu.Lock()
	q := s.count == 0
	s.mu.Unlock()
	return q
}
