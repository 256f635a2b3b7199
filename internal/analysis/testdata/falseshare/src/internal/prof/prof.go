// Fixture for falseshare's padded-cell rule: a field whose type is one
// of the package's one-line cells is as hot as the atomic inside it.
package prof

import "sync/atomic"

// paddedGauge and paddedFloat are the cells: one atomic, one line.
type paddedGauge struct {
	v atomic.Int64
	_ [7]uint64
}

type paddedFloat struct {
	v atomic.Uint64
	_ [7]uint64
}

// admitSlot holds a cell next to colder state; its size keeps array
// neighbours' gauges on line boundaries: no findings.
type admitSlot struct {
	queued paddedGauge
	counts [5]uint64
	_      [3]uint64
}

// shortSlot forgot the tail pad: slot i+1's gauge lands mid-line, on
// slot i's counters.
type shortSlot struct { // want `not a multiple of the 64 B cache line`
	weight paddedFloat
	counts [5]uint64
	_      [48]byte
}

// thinFloat is a float cell whose pad lost a word: the neighbour's
// first field now shares the value's line.
type thinFloat struct {
	v    atomic.Uint64 // want `shares a cache line with note`
	_    [6]uint64
	note uint64
}

type ledger struct {
	classes [3]admitSlot
	short   [3]shortSlot
}

var (
	_ = paddedGauge{}
	_ = paddedFloat{}
	_ = ledger{}
	_ = thinFloat{}
)
