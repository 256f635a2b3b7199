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
