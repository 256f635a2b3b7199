//go:build !linux

package jobserve

import (
	"net"

	"repro/internal/prof"
)

// poller is Linux-only. Elsewhere there is never one, no connection is
// ever registered, and the reader is the plain blocking net.Conn read;
// the methods below exist so edge.go compiles, and are unreachable.
type poller struct{}

func newPoller() *poller                              { return nil }
func (p *poller) open(net.Conn, *prof.Wire) *edgeConn { return nil }
func (p *poller) close()                              {}
func (p *poller) sweep(*edgeConn) bool                { return false }
func (p *poller) park(*edgeConn, bool)                {}
func (e *edgeConn) close()                            {}

func (e *edgeConn) readNonblock([]byte) (int, error) { return 0, errEdgeEmpty }
