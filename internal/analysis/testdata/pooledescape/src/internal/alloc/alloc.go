// Fixture dependency for the pooledescape analyzer: a miniature of the
// real internal/alloc pool API (the path suffix is what marks these
// methods as pool sources and sinks).
package alloc

// BufPool recycles byte buffers.
type BufPool struct {
	free [][]byte
}

// Get returns a buffer with at least min capacity.
func (p *BufPool) Get(min int) []byte {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b[:0]
	}
	return make([]byte, 0, min)
}

// Put recycles b.
func (p *BufPool) Put(b []byte) {
	p.free = append(p.free, b)
}

// Level is a generic object pool in the MultiLevel shape.
type Level[T any] struct {
	free []*T
}

// GetShared draws a value for lane w.
func (l *Level[T]) GetShared(w int) *T {
	if n := len(l.free); n > 0 {
		t := l.free[n-1]
		l.free = l.free[:n-1]
		return t
	}
	return new(T)
}

// PutShared returns t to lane w.
func (l *Level[T]) PutShared(w int, t *T) {
	l.free = append(l.free, t)
}

// PutSharedRun returns a run of values to lane w.
func (l *Level[T]) PutSharedRun(w int, ts []*T) {
	l.free = append(l.free, ts...)
}
