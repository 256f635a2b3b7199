package jobserve

import (
	"errors"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/prof"
)

// The edge polls itself. A reader that parks in Go's netpoller is woken
// only when a P runs dry, so beside other runnable goroutines a frame
// that is already in the socket waits until all of them block. While the
// edge is hot the reader therefore goes looking for its next frame: one
// yield first, so the worker its last frame rang runs the job, then a
// non-blocking read of its own socket, one sweep of the server's epoll
// set on behalf of every reader that did park (none is made while no
// reader is parked), and a yield — for at most pollWindow after its last
// frame, and then the blocking read it always did. The poller only ever
// wakes earlier what netpoll would wake later; nothing depends on it for
// correctness.

// pollWindow is the edge poller's one constant: a reader polls for at
// most this long after a frame, and only while the server-wide EWMA of
// frame inter-arrival time (prof.Wire.Heat) is below it — a reader
// polls when the next frame is likelier than not to land inside the
// window. Sized by sweep (CHANGES.md, PR 18).
const pollWindow = 200 * time.Microsecond

// kickTime is the read deadline a kick sets: any instant in the past.
var kickTime = time.Unix(1, 0)

// errEdgeEmpty is readNonblock's "nothing in the socket yet".
var errEdgeEmpty = errors.New("jobserve: socket empty")

// edgeConn is the read side of one connection registered with the
// poller: the io.Reader under the reader's wire.Decoder. Everything but
// parked is the reader goroutine's own.
type edgeConn struct {
	c    net.Conn
	rc   syscall.RawConn
	p    *poller
	wire *prof.Wire
	id   uint64 // the poller's key for this connection, never reused

	// parked is true while the reader is inside the blocking read: the
	// only state in which a sweep that finds this connection ready has
	// anybody to wake. poller.park sets it, beside the poller's count.
	parked atomic.Bool

	// pollUntil is the end of the current poll window (zero: park at
	// once). frame opens it; Read closes it when it runs out.
	pollUntil time.Time
	// idleDeadline is the connection's real read deadline. Nothing sets
	// one yet (edge deadlines are ROADMAP item 5(a)); a cleared kick
	// restores it.
	idleDeadline time.Time

	// readNonblock's hand-off to its RawConn.Read callback, kept here so
	// a poll allocates nothing.
	rawFn  func(fd uintptr) bool
	rawBuf []byte
	rawN   int
	rawErr error
}

// frame tells the connection its reader has just decoded a frame at now
// (nowNS on the server's stage clock): it feeds the heat signal and, on
// a hot edge, opens the poll window for the reads that follow. A nil
// connection (no poller) ignores it.
func (e *edgeConn) frame(now time.Time, nowNS int64) {
	if e == nil {
		return
	}
	e.pollUntil = time.Time{}
	if e.wire.Heat.Arrive(nowNS) < int64(pollWindow) {
		e.pollUntil = now.Add(pollWindow)
	}
}

// Read is the reader's one loop: poll while the window is open, then
// block exactly as a plain net.Conn read does.
func (e *edgeConn) Read(b []byte) (int, error) {
	polls, sweeps := 0, 0
	if !e.pollUntil.IsZero() {
		// The worker the last frame's admission rang is runnable on this
		// P: let it run the job before the first read, rather than behind
		// an EAGAIN and a sweep.
		runtime.Gosched()
	}
	for !e.pollUntil.IsZero() {
		n, err := e.readNonblock(b)
		if err != errEdgeEmpty {
			if e.clearKick(err) {
				continue
			}
			e.wire.EdgeSpell(polls, sweeps, n > 0)
			return n, err
		}
		if time.Now().After(e.pollUntil) {
			e.pollUntil = time.Time{}
			break
		}
		polls++
		if e.p.sweep(e) {
			sweeps++
		}
		runtime.Gosched()
	}
	e.wire.EdgeSpell(polls, sweeps, false)
	for {
		e.wire.EdgePark()
		e.p.park(e, true)
		n, err := e.c.Read(b)
		e.p.park(e, false)
		if e.clearKick(err) {
			continue
		}
		return n, err
	}
}

// setReadDeadline is the only writer of the connection's read deadline:
// a kick expires it, anything else restores the real one.
func (e *edgeConn) setReadDeadline(kick bool) {
	t := kickTime
	if !kick {
		t = e.idleDeadline // the reader's own field: only it restores
	}
	// The one failure is a connection already closed, which the reader
	// learns from its next read.
	_ = e.c.SetReadDeadline(t)
}

// clearKick reports whether err is a kick's expired deadline rather than
// a real one, and if so restores the real deadline: the caller re-reads.
// A kick can land on a reader that was never parked, or after the kick
// before it was cleared; either way the next read fails fast, lands here
// and retries, so a kick costs a reader at most one failed read and
// never reaches readSubmits.
func (e *edgeConn) clearKick(err error) bool {
	if err == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
		return false
	}
	if !e.idleDeadline.IsZero() && !time.Now().Before(e.idleDeadline) {
		return false // the real deadline has passed as well
	}
	e.setReadDeadline(false)
	return true
}
