//go:build linux

package jobserve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/prof"
	"repro/internal/wire"
)

// The polling reader is tested over real TCP loopback: net.Pipe has no
// SyscallConn, so it can only ever take the plain path.

// tcpPair returns the two ends of one loopback connection.
func tcpPair(t *testing.T) (client, server *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	client, server = c.(*net.TCPConn), s.(*net.TCPConn)
	client.SetNoDelay(true)
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// testPoller returns a poller and the counters its connections share.
func testPoller(t *testing.T) (*poller, *prof.Wire) {
	t.Helper()
	w := new(prof.Wire)
	p := newPoller()
	if p == nil {
		t.Fatal("no epoll set")
	}
	t.Cleanup(p.close)
	return p, w
}

// openEdge registers c; hot leaves its poll window open for the whole
// test (a server's reader gets pollWindow per frame from frame).
func openEdge(t *testing.T, p *poller, w *prof.Wire, c net.Conn, hot bool) *edgeConn {
	t.Helper()
	e := p.open(c, w)
	if e == nil {
		t.Fatal("connection not registered")
	}
	t.Cleanup(e.close)
	if hot {
		e.pollUntil = time.Now().Add(time.Hour)
	}
	return e
}

// decoded is what a reader made of a byte stream.
type decoded struct {
	frames []string // one rendering per frame, in order
	err    error    // what ended the stream
}

func decodeAll(r io.Reader) decoded {
	var d decoded
	dec := wire.NewDecoder(r, nil)
	defer dec.Close()
	for {
		ft, err := dec.Next()
		if err != nil {
			d.err = err
			return d
		}
		if ft == wire.FrameSubmit {
			d.frames = append(d.frames, fmt.Sprintf("submit %+v", dec.Submits()))
		} else {
			d.frames = append(d.frames, fmt.Sprintf("results %+v", dec.Results()))
		}
	}
}

// feed writes chunks to c one write at a time, far enough apart that the
// reader sees each on its own, then closes c's write side.
func feed(t *testing.T, c *net.TCPConn, chunks [][]byte) {
	t.Helper()
	for _, ch := range chunks {
		if _, err := c.Write(ch); err != nil {
			t.Error(err)
			return
		}
		time.Sleep(300 * time.Microsecond)
	}
	c.CloseWrite()
}

// submitFrame encodes one submit frame of n records, tagged by tenant.
func submitFrame(t *testing.T, tenant, n int) []byte {
	t.Helper()
	recs := make([]wire.SubmitRecord, n)
	for i := range recs {
		recs[i] = wire.SubmitRecord{Class: i % 3, TenantID: tenant, Size: 100 * i, App: []byte("fib")}
	}
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf, nil)
	if err := enc.SubmitBatch(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func bytewise(b []byte) [][]byte {
	out := make([][]byte, len(b))
	for i := range b {
		out[i] = b[i : i+1]
	}
	return out
}

// TestEdgeReaderEquivalence: however a byte stream is cut into writes,
// the polling reader and the plain net.Conn hand the decoder the same
// frames and the same terminal error — including EOF mid-frame, and the
// FuzzWireRoundTrip seed corpus.
func TestEdgeReaderEquivalence(t *testing.T) {
	f1, f2 := submitFrame(t, 1, 3), submitFrame(t, 2, 5)
	both := append(append([]byte{}, f1...), f2...)
	golden, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "frames.golden"))
	if err != nil {
		t.Fatal(err)
	}
	half := len(f2) / 2
	cases := []struct {
		name    string
		chunks  [][]byte
		frames  int
		wantErr error
	}{
		{"one byte a write", bytewise(both), 2, io.EOF},
		{"header split 3+3", [][]byte{f1[:3], f1[3:6], f1[6:]}, 1, io.EOF},
		{"body split", [][]byte{f1[:6+(len(f1)-6)/2], f1[6+(len(f1)-6)/2:]}, 1, io.EOF},
		{"two frames in one write", [][]byte{both}, 2, io.EOF},
		{"frame and half a frame", [][]byte{both[:len(f1)+half], both[len(f1)+half:]}, 2, io.EOF},
		{"EOF mid-header", [][]byte{f1, f2[:3]}, 1, io.ErrUnexpectedEOF},
		{"EOF mid-body", [][]byte{f1, f2[:half]}, 1, io.ErrUnexpectedEOF},
		{"fuzz seed: golden frames", [][]byte{golden}, 2, io.EOF},
		{"fuzz seed: golden frames, one byte a write", bytewise(golden), 2, io.EOF},
		{"fuzz seed: empty", nil, 0, io.EOF},
		{"fuzz seed: unknown frame type", [][]byte{{2, 0, 0, 0, wire.Version, 99}}, 0, wire.ErrFrameType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, w := testPoller(t)
			var got [2]decoded
			for i, polling := range []bool{false, true} {
				client, server := tcpPair(t)
				var r io.Reader = server
				if polling {
					r = openEdge(t, p, w, server, true)
				}
				fed := make(chan struct{})
				go func() { defer close(fed); feed(t, client, tc.chunks) }()
				got[i] = decodeAll(r)
				<-fed
			}
			plain, polled := got[0], got[1]
			if len(plain.frames) != tc.frames || !errors.Is(plain.err, tc.wantErr) {
				t.Fatalf("plain reader: %d frames, err %v; want %d, %v", len(plain.frames), plain.err, tc.frames, tc.wantErr)
			}
			if !reflect.DeepEqual(polled.frames, plain.frames) {
				t.Fatalf("polling reader decoded\n%q\nplain reader\n%q", polled.frames, plain.frames)
			}
			if !errors.Is(polled.err, tc.wantErr) {
				t.Fatalf("polling reader ended with %v, plain with %v", polled.err, plain.err)
			}
			ws := w.Snapshot()
			if len(tc.chunks) > 2 && ws.EdgePolls == 0 {
				t.Fatalf("the polling reader never polled: %+v", ws)
			}
			if ws.EdgeParks != 0 {
				t.Fatalf("a reader with its window open parked: %+v", ws)
			}
		})
	}
}

// readResult is one Read's outcome.
type readResult struct {
	n   int
	err error
}

// startRead runs one Read of e on its own goroutine.
func startRead(e *edgeConn, n int) chan readResult {
	out := make(chan readResult, 1)
	go func() {
		n, err := e.Read(make([]byte, n))
		out <- readResult{n, err}
	}()
	return out
}

// waitUntil polls cond with a deadline.
func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// within fails unless r delivers inside bound.
func within(t *testing.T, r chan readResult, bound time.Duration, what string) readResult {
	t.Helper()
	start := time.Now()
	select {
	case res := <-r:
		if el := time.Since(start); el > bound {
			t.Fatalf("%s: reader took %v to return, want < %v", what, el, bound)
		}
		return res
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: reader never returned", what)
		return readResult{}
	}
}

// endBound is the millisecond-scale bound on a polling reader noticing
// that its connection ended: it yields between polls, so even at one P
// under the race detector this is a few scheduler rounds.
const endBound = 100 * time.Millisecond

// TestEdgePollEndsWithTheConnection: a reader inside its poll window
// returns promptly when the server closes the connection under it, when
// the peer closes, and when the peer resets.
func TestEdgePollEndsWithTheConnection(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(client, server *net.TCPConn)
		want func(error) bool
	}{
		{"server closes", func(_, s *net.TCPConn) { s.Close() },
			func(err error) bool { return errors.Is(err, net.ErrClosed) }},
		{"peer closes", func(c, _ *net.TCPConn) { c.Close() },
			func(err error) bool { return err == io.EOF }},
		{"peer resets", func(c, _ *net.TCPConn) { c.SetLinger(0); c.Close() },
			func(err error) bool {
				var op *net.OpError
				return errors.As(err, &op) && op.Op == "read"
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, w := testPoller(t)
			client, server := tcpPair(t)
			e := openEdge(t, p, w, server, true)
			// One byte through proves the reader is up and polling.
			r := startRead(e, 1)
			client.Write([]byte{7})
			if res := within(t, r, 5*time.Second, "first byte"); res.n != 1 || res.err != nil {
				t.Fatalf("first byte: %+v", res)
			}
			r = startRead(e, 1)
			time.Sleep(2 * time.Millisecond) // well into the poll loop
			tc.end(client, server)
			if res := within(t, r, endBound, tc.name); res.n != 0 || !tc.want(res.err) {
				t.Fatalf("reader returned %d, %v", res.n, res.err)
			}
		})
	}
}

// TestEdgeSlowLorisParks: a peer that sends half a header and stops has
// the reader parked — not polling — once the window has run out, and a
// parked reader still finishes the frame when the rest arrives.
func TestEdgeSlowLorisParks(t *testing.T) {
	p, w := testPoller(t)
	client, server := tcpPair(t)
	e := openEdge(t, p, w, server, false)
	frame := submitFrame(t, 1, 2)

	// A hot edge: two arrivals a nanosecond apart, the second this
	// connection's, which opens its window as a decoded frame would — on
	// the reader goroutine, just before it reads, so a reader that is
	// scheduled late still starts inside its window.
	w.Heat.Arrive(1)
	type window struct {
		opened time.Time
		open   bool
	}
	opened := make(chan window, 1)
	got := make(chan decoded, 1)
	go func() {
		now := time.Now()
		e.frame(now, 2)
		opened <- window{now, !e.pollUntil.IsZero()}
		got <- decodeAll(e)
	}()
	win := <-opened
	if !win.open {
		t.Fatal("a hot edge did not open the poll window")
	}
	now := win.opened
	client.Write(frame[:3])

	waitUntil(t, func() bool { return e.parked.Load() }, "the reader to park")
	if since := time.Since(now); since < pollWindow {
		t.Fatalf("reader parked %v into a %v window", since, pollWindow)
	}
	before := w.Snapshot()
	time.Sleep(10 * pollWindow)
	after := w.Snapshot()
	if after.EdgePolls != before.EdgePolls || !e.parked.Load() {
		t.Fatalf("reader still polling a silent peer: %d -> %d polls, parked %v",
			before.EdgePolls, after.EdgePolls, e.parked.Load())
	}
	if before.EdgePolls == 0 || before.EdgeParks == 0 {
		t.Fatalf("want a poll spell that ended in a park, got %+v", before)
	}

	client.Write(frame[3:])
	client.CloseWrite()
	select {
	case d := <-got:
		if len(d.frames) != 1 || d.err != io.EOF {
			t.Fatalf("parked reader decoded %d frames, err %v", len(d.frames), d.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked reader never finished the frame")
	}
}

// TestEdgeKickIsHarmless: a kick expires the read deadline whatever the
// reader is doing. Not parked (polling, or between reads), its next read
// fails fast, clears the kick and re-reads; parked with nothing to read,
// it wakes, clears and parks again. No error surfaces, no byte is lost.
func TestEdgeKickIsHarmless(t *testing.T) {
	for _, hot := range []bool{true, false} {
		t.Run(fmt.Sprintf("hot=%v", hot), func(t *testing.T) {
			p, w := testPoller(t)
			client, server := tcpPair(t)
			e := openEdge(t, p, w, server, hot)

			// Kicked before it ever reads.
			e.setReadDeadline(true)
			r := startRead(e, 4)
			client.Write([]byte("abcd"))
			if res := within(t, r, 5*time.Second, "read after a stray kick"); res.n != 4 || res.err != nil {
				t.Fatalf("read after a stray kick: %+v", res)
			}

			// Kicked while waiting, with nothing to read.
			parks := w.Snapshot().EdgeParks
			r = startRead(e, 4)
			if !hot {
				waitUntil(t, func() bool { return e.parked.Load() }, "the reader to park")
			}
			e.setReadDeadline(true)
			if !hot {
				waitUntil(t, func() bool { return w.Snapshot().EdgeParks > parks+1 }, "the kicked reader to park again")
			}
			select {
			case res := <-r:
				t.Fatalf("a kick with nothing to read ended the read: %+v", res)
			case <-time.After(2 * time.Millisecond):
			}
			client.Write([]byte("efgh"))
			if res := within(t, r, 5*time.Second, "read after a kick"); res.n != 4 || res.err != nil {
				t.Fatalf("read after a kick: %+v", res)
			}
		})
	}
}

// TestEdgeSweepKicksParkedReaders: a sweep kicks exactly the ready
// connections whose reader is parked — not itself, not a connection with
// nothing to read, not one that is gone.
func TestEdgeSweepKicksParkedReaders(t *testing.T) {
	p, w := testPoller(t)
	_, selfSrv := tcpPair(t)
	self := openEdge(t, p, w, selfSrv, true)
	readyClient, readySrv := tcpPair(t)
	ready := openEdge(t, p, w, readySrv, false)
	_, quietSrv := tcpPair(t)
	quiet := openEdge(t, p, w, quietSrv, false)
	goneClient, goneSrv := tcpPair(t)
	gone := p.open(goneSrv, w)

	// Nobody reads these; they are marked parked the way a reader marks
	// itself before its blocking read, so the sweep's choice is the only
	// thing under test.
	p.park(ready, true)
	p.park(quiet, true)
	p.park(gone, true)

	// gone becomes ready, then leaves the way Server.Close makes it leave:
	// the connection closed first, the registration dropped after.
	goneClient.Write([]byte{1})
	time.Sleep(time.Millisecond)
	goneSrv.Close()
	gone.close()

	readyClient.Write([]byte("data"))
	waitUntil(t, func() bool { p.sweep(self); return w.Snapshot().EdgeKicks > 0 }, "the sweep to find the ready connection")
	p.sweep(self) // edge-triggered: reported once
	if ws := w.Snapshot(); ws.EdgeKicks != 1 {
		t.Fatalf("want exactly one kick, got %+v", ws)
	}
	p.mu.Lock()
	_, stale := p.conns[gone.id]
	p.mu.Unlock()
	if stale {
		t.Fatal("a closed connection is still registered")
	}

	// The kicked connection's next read clears the kick and finds the data.
	p.park(ready, false)
	buf := make([]byte, 8)
	if n, err := ready.Read(buf); n != 4 || err != nil {
		t.Fatalf("kicked connection read %d, %v", n, err)
	}
}

// TestEdgeSweepsOnlyForParkedReaders: a lone hot reader polls its own
// socket and makes no epoll_wait — a sweep would have nobody to kick —
// and once another reader parks, the hot reader's polls sweep for it.
func TestEdgeSweepsOnlyForParkedReaders(t *testing.T) {
	p, w := testPoller(t)
	hotClient, hotSrv := tcpPair(t)
	hot := openEdge(t, p, w, hotSrv, true)
	pollFor := func() {
		t.Helper()
		r := startRead(hot, 1)
		time.Sleep(300 * time.Microsecond) // the reader polls an empty socket meanwhile
		hotClient.Write([]byte{1})
		if res := within(t, r, 5*time.Second, "hot read"); res.n != 1 || res.err != nil {
			t.Fatalf("hot read: %+v", res)
		}
	}
	for i := 0; i < 20; i++ {
		pollFor()
	}
	if ws := w.Snapshot(); ws.EdgePolls == 0 || ws.EdgeSweeps != 0 {
		t.Fatalf("a lone hot reader: want polls and no sweeps, got %+v", ws)
	}

	_, coldSrv := tcpPair(t)
	cold := openEdge(t, p, w, coldSrv, false)
	startRead(cold, 1) // parks until the connection's cleanup closes it
	waitUntil(t, func() bool { return cold.parked.Load() }, "the cold reader to park")
	pollFor()
	if ws := w.Snapshot(); ws.EdgeSweeps == 0 {
		t.Fatalf("a hot reader beside a parked one made no sweep: %+v", ws)
	}
}
