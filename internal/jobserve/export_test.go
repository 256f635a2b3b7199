package jobserve

import "net"

// ServePlain is Serve without the edge poller: every reader decodes from
// its net.Conn directly, the only path there is off Linux. The e2e suite
// runs against both.
func ServePlain(ln net.Listener, cfg Config) (*Server, error) { return serve(ln, cfg, false) }
