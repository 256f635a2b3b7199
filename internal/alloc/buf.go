package alloc

import "sync"

// bufPoolMax bounds how many buffers a BufPool retains; beyond it Put
// drops the buffer to the GC, so a burst of connections cannot pin an
// unbounded amount of wire memory.
const bufPoolMax = 64

// bufMinCap is the smallest capacity a BufPool hands out. Wire frames
// are usually a few hundred bytes; starting at 4 KiB means a buffer
// reaches its steady-state high-water mark after the first few frames
// and is never reallocated again.
const bufMinCap = 4096

// BufPool recycles byte buffers for the wire codec the same way the
// multi-level allocator recycles task descriptors: encode/decode paths
// draw a buffer, grow it to their frame's high-water mark, and return
// it, so steady-state framing performs no heap allocation. The pool is
// a bounded MRU stack under one mutex — buffer traffic is per frame
// batch, not per job, so the lock is off the per-job fast path by
// construction.
type BufPool struct {
	mu   sync.Mutex
	free [][]byte
}

// NewBufPool returns an empty buffer pool.
func NewBufPool() *BufPool { return &BufPool{} }

// Get returns a zero-length buffer with capacity at least min. The
// buffer contents are unspecified; append from length zero. A recycled
// buffer that is too small is dropped and replaced by a fresh one (the
// pool converges on the workload's high-water mark).
func (p *BufPool) Get(min int) []byte {
	if min < bufMinCap {
		min = bufMinCap
	}
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		if cap(b) >= min {
			p.mu.Unlock()
			return b[:0]
		}
		// Too small: fall through and allocate; the undersized buffer is
		// dropped (the next Put replaces it with a grown one).
	}
	p.mu.Unlock()
	return make([]byte, 0, min)
}

// Put recycles b. Nil and trivially small buffers are ignored; past the
// retention bound the buffer is dropped (bounded pool, like the shared
// spill lanes).
func (p *BufPool) Put(b []byte) {
	if cap(b) < bufMinCap {
		return
	}
	p.mu.Lock()
	if len(p.free) < bufPoolMax {
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
}
