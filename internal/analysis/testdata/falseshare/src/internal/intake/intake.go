// Fixture for the falseshare analyzer. The package path suffix
// internal/intake puts it in the analyzer's hot set.
package intake

import "sync/atomic"

// Ring has fully isolated cursors: no findings.
type Ring struct {
	_    [8]uint64
	head atomic.Uint64
	_    [7]uint64
	tail atomic.Uint64
	_    [7]uint64
}

// Gate reproduces the unpadded-flag bug. go vet is silent here:
// copylocks only cares about copying, not layout.
type Gate struct {
	armed atomic.Bool // want `shares a cache line with mu`
	mu    int64
	ch    chan struct{}
}

// Bell is the fixed shape.
type Bell struct {
	sleepers atomic.Int32
	_        [60]byte
	mu       int64
}

// counters is not in the named hot set but opts into checking through
// its padding idiom — and then forgets to isolate the tail field, the
// partial-padding regression the analyzer exists to catch.
type counters struct {
	hits atomic.Uint64
	_    [7]uint64
	miss atomic.Uint64 // want `shares a cache line with note`
	note uint64
}

// Cell is a packed publication group (all-atomic, one line) but its
// 24-byte size lets slice neighbours share lines.
type Cell struct { // want `not a multiple of the 64 B cache line`
	a atomic.Uint64
	b atomic.Uint64
	c atomic.Uint64
}

// plane uses Cell as an element, which is what arms the size check.
type plane struct {
	cells []Cell
}

// quiet demonstrates a justified suppression: same shape as counters,
// no finding.
type quiet struct {
	n atomic.Int64
	_ [7]uint64
	o atomic.Int64 //repolint:ok falseshare — tail gauge shares with a cold counter by design
	m int64
}

// cold has atomics but neither a hot-set name nor the padding idiom:
// out of scope, no findings.
type cold struct {
	n atomic.Int64
	m int64
}

var (
	_ = Ring{}
	_ = Gate{}
	_ = Bell{}
	_ = counters{}
	_ = plane{}
	_ = quiet{}
	_ = cold{}
)
