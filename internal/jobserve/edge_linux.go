//go:build linux

package jobserve

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/prof"
)

// poller is the server's own edge-triggered epoll set over its accepted
// connections, beside (not instead of) the runtime's netpoller. Nobody
// blocks on it: polling readers sweep it with a zero timeout, and only
// while some reader is parked.
type poller struct {
	epfd int
	// parked counts the readers inside their blocking read (park): a
	// sweep with nobody to kick returns before its epoll_wait.
	parked atomic.Int32

	// mu guards everything below. Sweeps only ever TryLock it: one
	// sweeper at a time is enough, and a reader that loses the race has
	// its own socket to go back to.
	mu     sync.Mutex
	nextID uint64
	conns  map[uint64]*edgeConn
	events [64]syscall.EpollEvent
}

// newPoller returns the server's poller, or nil when the kernel refuses
// one — the server then reads exactly as it would without this file.
func newPoller() *poller {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil
	}
	return &poller{epfd: epfd, conns: make(map[uint64]*edgeConn)}
}

// epollET is syscall.EPOLLET as the unsigned bit it is (the package
// declares it as a negative int on some ports).
const epollET = 1 << 31

// open registers c and returns its polling read side, counting on w, or
// nil when there is no poller or c offers no raw descriptor. The epoll event carries
// the connection's id, not its descriptor number: ids are never reused,
// so an event that outlives its connection resolves to nothing, and the
// connection is in conns, fully built, before the kernel can report it.
func (p *poller) open(c net.Conn, w *prof.Wire) *edgeConn {
	if p == nil {
		return nil
	}
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	e := &edgeConn{c: c, rc: rc, p: p, wire: w}
	e.rawFn = e.rawRead
	p.mu.Lock()
	p.nextID++
	e.id = p.nextID
	p.conns[e.id] = e
	p.mu.Unlock()
	ev := syscall.EpollEvent{
		Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | epollET,
		Fd:     int32(uint32(e.id)),
		Pad:    int32(uint32(e.id >> 32)),
	}
	var addErr error
	ctlErr := rc.Control(func(fd uintptr) {
		addErr = syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, int(fd), &ev)
	})
	if ctlErr != nil || addErr != nil {
		p.forget(e)
		return nil
	}
	return e
}

// forget drops e from the table: events still carrying its id resolve to
// nothing from here on.
func (p *poller) forget(e *edgeConn) {
	p.mu.Lock()
	delete(p.conns, e.id)
	p.mu.Unlock()
}

// close deregisters the connection. It runs before the connection's own
// Close whenever the reader ends first; when Server.Close got there
// first, Control fails, and the kernel has already dropped the closed
// descriptor from the set. Control pins the descriptor either way, so
// the delete can never hit a reused number.
func (e *edgeConn) close() {
	if e == nil {
		return
	}
	_ = e.rc.Control(func(fd uintptr) {
		_ = syscall.EpollCtl(e.p.epfd, syscall.EPOLL_CTL_DEL, int(fd), nil)
	})
	e.p.forget(e)
}

// close releases the epoll descriptor once every connection is gone.
func (p *poller) close() {
	if p != nil {
		syscall.Close(p.epfd)
	}
}

// park marks e's reader as entering (on) or leaving its blocking read.
// Entering, both marks land before the read's first read(2).
func (p *poller) park(e *edgeConn, on bool) {
	if on {
		p.parked.Add(1)
		e.parked.Store(true)
		return
	}
	e.parked.Store(false)
	p.parked.Add(-1)
}

// sweep collects what the kernel has to report without waiting and kicks
// every ready connection whose reader is parked in netpoll; self needs
// no kick, it is about to read. It reports whether it made the
// epoll_wait: not while no reader is parked, nor while another sweep
// holds the set. The events are edge-triggered and consumed here, which
// loses nothing: a reader always reads before it parks, and one that
// parked before its data arrived was counted and had parked set before
// the event existed. An event nobody sweeps stays queued in the set for
// the first sweep after a reader parks.
func (p *poller) sweep(self *edgeConn) bool {
	if p.parked.Load() == 0 || !p.mu.TryLock() {
		return false
	}
	n, _ := syscall.EpollWait(p.epfd, p.events[:], 0) // an error is n <= 0
	kicks := 0
	for i := 0; i < n; i++ {
		ev := &p.events[i]
		e := p.conns[uint64(uint32(ev.Fd))|uint64(uint32(ev.Pad))<<32]
		if e == nil || e == self || !e.parked.Load() {
			continue
		}
		e.setReadDeadline(true)
		kicks++
	}
	p.mu.Unlock()
	if kicks > 0 {
		self.wire.EdgeKick(kicks)
	}
	return true
}

// rawRead is the RawConn.Read callback: one read(2), and never a request
// to wait — returning true is what makes the read non-blocking.
func (e *edgeConn) rawRead(fd uintptr) bool {
	for {
		e.rawN, e.rawErr = syscall.Read(int(fd), e.rawBuf)
		if e.rawErr != syscall.EINTR {
			return true
		}
	}
}

// readNonblock reads what the socket holds right now: errEdgeEmpty when
// that is nothing, otherwise what a net.Conn read would have returned.
func (e *edgeConn) readNonblock(b []byte) (int, error) {
	e.rawBuf = b
	err := e.rc.Read(e.rawFn)
	e.rawBuf = nil
	switch {
	case err != nil:
		return 0, err // closed, or a deadline expired: net's own error
	case e.rawErr == syscall.EAGAIN:
		return 0, errEdgeEmpty
	case e.rawErr != nil:
		return 0, &net.OpError{Op: "read", Net: e.c.LocalAddr().Network(), Source: e.c.LocalAddr(),
			Addr: e.c.RemoteAddr(), Err: os.NewSyscallError("read", e.rawErr)}
	case e.rawN == 0 && len(b) > 0:
		return 0, io.EOF
	}
	return e.rawN, nil
}
