package prof

import (
	"math"
	"sync"
	"sync/atomic"
)

// The four cells every piece of shared (non-per-thread) profile state is
// built from: a padded gauge (integer or float), a plain counter, an
// arrival-gap average (Heat), and a locked bounded ring. Anything a
// submitter, balancer or connection goroutine writes is one of these, so
// "which words are hot, which are locked, which are bounded" is answered
// here once.

// paddedGauge is an atomic gauge alone on its cache line. The admission
// gauges are the write-hottest words of the submit fast path, hit by
// every submitter and every adopting worker; padding keeps a store to
// one class's gauge (or to the total) from invalidating the line under
// its neighbours.
type paddedGauge struct {
	v atomic.Int64
	_ [7]uint64
}

func (g *paddedGauge) add(d int64) { g.v.Add(d) }
func (g *paddedGauge) load() int64 { return g.v.Load() }

// paddedFloat is the float64 gauge: the value's bits in an atomic word,
// padded like paddedGauge. It is the only place the package converts
// between float64 and its bit pattern.
type paddedFloat struct {
	v atomic.Uint64
	_ [7]uint64
}

func (g *paddedFloat) set(f float64) { g.v.Store(math.Float64bits(f)) }
func (g *paddedFloat) load() float64 { return math.Float64frombits(g.v.Load()) }

// counter is a monotonic event count any goroutine may bump. Counters are
// deliberately unpadded: they sit in groups written by the same event
// (an admission's outcome row, a frame's byte and record counts).
type counter struct{ v atomic.Uint64 }

func (c *counter) add(n int) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}
func (c *counter) load() uint64 { return c.v.Load() }

// Heat is how busy an arrival stream is: an EWMA (α = ¼) of the gaps
// between the clock readings fed to Arrive, the first gap measured from
// the clock's base, so a stream that starts late starts cold. It is the
// signal the serving edge gates its readers' polling on (Wire.Heat, fed
// on frame arrivals), and the question it answers is: is the next
// arrival likelier than not to land inside the poll window? Concurrent feeders
// may lose each other's update; the signal is a rate estimate, not a
// count. The zero value reads hot (0 ns) until its first arrival.
type Heat struct {
	last atomic.Int64 // the latest reading fed to Arrive
	ns   atomic.Int64 // the EWMA of the gaps between those readings
}

// Arrive feeds one arrival at clock reading nowNS and returns the updated
// average gap: one Swap, one Load and one Store. A reading older than the
// latest (two feeders' clock reads landed out of order) counts as a zero
// gap.
func (h *Heat) Arrive(nowNS int64) int64 {
	gap := max(0, nowNS-h.last.Swap(nowNS))
	heat := h.ns.Load()
	heat += (gap - heat) / 4
	h.ns.Store(heat)
	return heat
}

// NS returns the average gap between arrivals, in nanoseconds.
func (h *Heat) NS() int64 { return h.ns.Load() }

// Ring is the bounded log all event-like state shares (job records,
// admission latencies and events): append until the bound, then
// overwrite the oldest, under the ring's own lock, with a lifetime total beside the retained entries.
// Build one with NewRing; a Ring must not be copied after first use.
type Ring[T any] struct {
	mu    sync.Mutex
	bound int
	buf   []T
	head  int
	total uint64
}

// NewRing returns an empty ring retaining the most recent bound entries.
func NewRing[T any](bound int) Ring[T] { return Ring[T]{bound: bound} }

// Add appends v, evicting the oldest entry once the ring holds its bound.
func (r *Ring[T]) Add(v T) {
	r.mu.Lock()
	r.addLocked(v)
	r.mu.Unlock()
}

// addLocked is Add for a caller that holds r.mu to update state of its
// own in the same critical section (the job-time EWMA beside the job log).
func (r *Ring[T]) addLocked(v T) {
	r.total++
	if len(r.buf) < r.bound {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
}

// Snapshot returns a copy of the retained entries in insertion order
// (oldest first across the ring seam).
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// Total returns how many entries were ever added, evicted ones included.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
