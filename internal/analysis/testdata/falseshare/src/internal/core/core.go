// Fixture for the falseshare analyzer outside its hot packages: in
// internal/core only the service, Outbox and parkedRun structs are
// inspected.
package core

import "sync/atomic"

// service pads the head of its lifecycle word and forgets the tail.
type service struct {
	_     [8]uint64
	state atomic.Int64 // want `shares a cache line with wg`
	wg    uint64
}

// Outbox keeps its wake-up channel on the line every pusher CASes; it is
// inspected by name, with no padding idiom in sight.
type Outbox struct {
	note chan struct{}
	head atomic.Pointer[Outbox] // want `shares a cache line with note`
}

// parkedRun pads its claim cursor's tail and leaves the run's roots on
// its head line.
type parkedRun struct {
	roots []uintptr
	cur   atomic.Int64 // want `shares a cache line with roots`
	_     [7]uint64
}

// Worker has the same flaw and the same idiom, and is not inspected.
type Worker struct {
	round atomic.Uint64
	_     [7]uint64
	cur   atomic.Uint64
	id    int
}
