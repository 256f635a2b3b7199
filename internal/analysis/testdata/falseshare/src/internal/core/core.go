// Fixture for the falseshare analyzer outside its hot packages: in
// internal/core only the service struct is inspected.
package core

import "sync/atomic"

// service pads the head of its lifecycle word and forgets the tail.
type service struct {
	_     [8]uint64
	state atomic.Int64 // want `shares a cache line with wg`
	wg    uint64
}

// Worker has the same flaw and the same idiom, and is not inspected.
type Worker struct {
	round atomic.Uint64
	_     [7]uint64
	cur   atomic.Uint64
	id    int
}
