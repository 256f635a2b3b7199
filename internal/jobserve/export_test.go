package jobserve

import (
	"net"
	"sync/atomic"
)

// ServePlain is Serve without the edge poller: every reader decodes from
// its net.Conn directly, the only path there is off Linux. The e2e suite
// runs against both.
func ServePlain(ln net.Listener, cfg Config) (*Server, error) { return serve(ln, cfg, false) }

// WatchWindow installs f as the window hook of every connection accepted
// from now on: the reader calls it after each raise of its window.
func (s *Server) WatchWindow(f func(sent uint64, reported *atomic.Uint64)) {
	s.mu.Lock()
	s.windowHook = f
	s.mu.Unlock()
}

// WatchHolds installs f as the hold hook of every connection accepted from
// now on: a writer calls it before each yield of a hold, with the number
// of records its last drain added.
func (s *Server) WatchHolds(f func(added int)) {
	s.mu.Lock()
	s.holdHook = f
	s.mu.Unlock()
}
