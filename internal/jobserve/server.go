// Package jobserve is the network serving edge over the balanced job
// service: a TCP server that decodes wire submit batches straight into
// ShardedPool.SubmitBatchCtx — one syscall's worth of jobs pays one
// admission section — and streams per-job outcome records back with
// coalesced writes, plus the matching client. Each connection runs one
// reader/writer goroutine pair around a counted window; completed jobs
// chain themselves into the connection's Outbox, which the writer takes a
// drain at a time, and a hot connection's reader polls instead of parking
// (edge.go).
// ARCHITECTURE.md, "Network serving edge", has the design; the whole edge
// holds the fast path's zero-allocation line for synthetic (spin) jobs.
package jobserve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/bots"
	"repro/internal/load"
	"repro/internal/prof"
	"repro/internal/simnuma"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/xomp"
)

// DefaultWindow bounds each connection's decoded-but-unreported records
// when Config.Window is zero. The window is the conn's only unbounded-
// buffer guard: nothing on the completion side is sized to it (finished
// jobs queue in an Outbox, through their own frames).
const DefaultWindow = 4096

// Config configures a Server.
type Config struct {
	// Pool is the sharded pool the edge submits into. Required; the
	// server does not close it.
	Pool *xomp.ShardedPool
	// Scale is the BOTS input scale for named-app submissions (zero
	// value = bots.ScaleTest, matching the replay harness).
	Scale bots.Scale
	// Window bounds decoded-but-unreported records per connection
	// (0 = DefaultWindow). A reader that fills its window stops decoding
	// until results drain — per-connection backpressure.
	Window int
}

// Server owns one listener and its connections.
type Server struct {
	cfg    Config
	ln     net.Listener
	bufs   *alloc.BufPool
	wire   prof.Wire
	poller *poller   // the edge poller (edge.go); nil = every reader just blocks
	epoch  time.Time // base of the stage clock's stamps
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	// windowHook, set by tests only, sees every raise of a connection's
	// window: the reader's sent and the counter its writer advances.
	windowHook func(sent uint64, reported *atomic.Uint64)
	// holdHook, set by tests only, sees every hold of a writer: how many
	// records the drain before the yield added.
	holdHook func(added int)
}

// Serve starts serving connections from ln until Close. The returned
// Server owns ln.
func Serve(ln net.Listener, cfg Config) (*Server, error) { return serve(ln, cfg, true) }

// serve is Serve with the edge poller optional, so the tests can run
// both reader paths on one host.
func serve(ln net.Listener, cfg Config, poll bool) (*Server, error) {
	if cfg.Pool == nil {
		return nil, errors.New("jobserve: Config.Pool is required")
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Window < 1 {
		return nil, fmt.Errorf("jobserve: Config.Window must be >= 1, got %d", cfg.Window)
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		bufs:  alloc.NewBufPool(),
		epoch: time.Now(),
		conns: make(map[net.Conn]struct{}),
	}
	if poll {
		s.poller = newPoller()
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the listener's address (the loopback harnesses dial it).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Wire snapshots the server's per-connection traffic counters.
func (s *Server) Wire() prof.WireSnapshot { return s.wire.Snapshot() }

// Stages snapshots the server-side stage clock (see prof.WireStage).
func (s *Server) Stages() [prof.NumWireStages]stats.Histogram { return s.wire.Stages() }

// Close stops accepting, severs every live connection (in-flight jobs
// finish on the pool but their results are no longer deliverable), and
// waits for the connection goroutines to drain. The pool stays open.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	s.poller.close()
	return err
}

// accept hands each connection its goroutine pair until the listener
// closes.
func (s *Server) accept() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // Close closed the listener (or it failed terminally)
		}
		if tc, ok := c.(*net.TCPConn); ok {
			// The writer already coalesces result frames; let each flush
			// leave immediately instead of waiting out Nagle.
			tc.SetNoDelay(true)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(c)
	}
}

// conn is one connection's state, shared by its reader (handle's own
// goroutine: decode → admit → subscribe) and its writer (completions →
// encode → coalesced flush). Either half's terminal error cancels the
// pair, so neither outlives the other by more than a drain.
type conn struct {
	s      *Server
	c      net.Conn
	ec     *edgeConn // the polling read side; nil = the reader decodes from c itself
	cancel context.CancelFunc
	// box (completed jobs, pushed by the finishing worker) and refusals
	// (records for items that never became jobs) feed the writer.
	box      *xomp.Outbox
	refusals chan []wire.ResultRecord
	// admitted is the stage clock's hand-off: the reader arms it with the
	// admission stamp of the oldest frame no completion has answered yet,
	// the writer's next wake-up with a completed job disarms it (0).
	admitted atomic.Int64
	// The window (ARCHITECTURE.md, "Connection lifecycle"): sent, raised
	// only by the reader, counts records let in; reported, raised only by
	// the writer, counts records flushed, jobs and refusals alike; room is
	// the writer's poke for a reader that found sent - reported at
	// Config.Window. Each half reads the other's counter: the reader to
	// find room, the writer to learn whether records are still in flight.
	sent     atomic.Uint64
	reported atomic.Uint64
	room     chan struct{}
}

// handle runs one connection to its end.
func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	s.wire.ConnOpened()
	defer s.wire.ConnClosed()
	ec := s.poller.open(c, &s.wire)
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		ec.close() // leave the epoll set while the descriptor is still ours
		c.Close()
	}()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	cn := &conn{
		s: s, c: c, ec: ec, cancel: cancel,
		box:      xomp.NewOutbox(),
		refusals: make(chan []wire.ResultRecord, 8),
		room:     make(chan struct{}, 1),
	}
	written := make(chan struct{})
	go func() {
		defer close(written)
		cn.write(ctx)
	}()
	cn.read(ctx)
	<-written
}

// acquire waits until n more records fit the window and counts them in —
// the window's only raise; its only release is the writer's, after a flush.
func (cn *conn) acquire(ctx context.Context, n int) bool {
	sent := cn.sent.Load() + uint64(n)
	for sent-cn.reported.Load() > uint64(cn.s.cfg.Window) {
		select {
		case <-cn.room:
		case <-ctx.Done():
			return false
		}
	}
	cn.sent.Store(sent)
	if h := cn.s.windowHook; h != nil {
		h(sent, &cn.reported)
	}
	return true
}

// refuse forwards refusal records to the writer, reporting false when the
// connection died first.
func (cn *conn) refuse(ctx context.Context, out []wire.ResultRecord) bool {
	select {
	case cn.refusals <- out:
		return true
	case <-ctx.Done():
		return false
	}
}

// read is the reader half: decode one submit frame, admit it as one
// batch, subscribe the admitted jobs to the writer's outbox, and forward
// immediate refusals. Sequence numbers are implicit, in decode order.
func (cn *conn) read(ctx context.Context) {
	defer cn.cancel() // reader gone → writer must not wait forever
	s := cn.s
	var src io.Reader = cn.c
	if cn.ec != nil {
		src = cn.ec
	}
	dec := wire.NewDecoder(src, s.bufs)
	defer dec.Close()
	var (
		seq   uint64
		items []xomp.BatchItem
		res   []xomp.BatchResult // the connection's one result slice, grown to the largest chunk
	)
	for {
		ft, err := dec.Next()
		if err != nil {
			return // clean EOF, conn severed, or corrupt frame: all end the conn
		}
		if ft != wire.FrameSubmit {
			return // clients must not send result frames
		}
		recs := dec.Submits()
		s.wire.FrameIn(len(recs), dec.FrameBytes())

		// One decoded frame becomes one admission batch. Deadlines are
		// relative on the wire and rebased onto the server clock here;
		// the same reading starts the frame's stage clock.
		now := time.Now()
		cn.ec.frame(now, int64(now.Sub(s.epoch)))
		items = items[:0]
		for i := range recs {
			r := &recs[i]
			it := xomp.BatchItem{Fn: s.bodyFor(r)}
			it.Opts.Priority = load.Class(r.Class)
			if r.DeadlineNS > 0 {
				it.Opts.Deadline = now.Add(time.Duration(r.DeadlineNS))
			}
			it.Opts.Tenant = load.Tenant{ID: r.TenantID, Weight: float64(r.TenantMilliWeight) / 1000}
			items = append(items, it)
		}

		// One frame is normally one admission section; one larger than
		// the window goes in window-sized chunks, since a chunk that can
		// never fit would wait on the writer forever.
		for at := 0; at < len(items); {
			chunk := min(len(items)-at, s.cfg.Window)
			if !cn.acquire(ctx, chunk) {
				return
			}
			if cap(res) < chunk {
				res = make([]xomp.BatchResult, chunk)
			}
			res = res[:chunk]
			if err := s.cfg.Pool.SubmitBatchCtx(ctx, items[at:at+chunk], res); err != nil {
				// Batch-level failure (pool closed): report and end the conn.
				out := make([]wire.ResultRecord, chunk)
				for i := range out {
					out[i] = wire.ResultRecord{Seq: seq + uint64(at+i), Status: wire.StatusClosed}
				}
				cn.refuse(ctx, out)
				return
			}
			// The verdict is in: one clock read closes the admit stage
			// and, armed below before the first Subscribe can deliver,
			// opens the first-done stage.
			verdict := time.Now()
			s.wire.RecordStage(prof.StageAdmit, int64(verdict.Sub(now)))
			armed := false
			var refused []wire.ResultRecord
			for i := range res {
				if res[i].Err != nil {
					refused = append(refused, wire.ResultRecord{
						Seq:    seq + uint64(at+i),
						Status: statusFor(res[i].Err),
					})
					continue
				}
				if !armed {
					cn.admitted.CompareAndSwap(0, int64(verdict.Sub(s.epoch))|1)
					armed = true
				}
				j := res[i].Job
				j.SetTag(seq + uint64(at+i))
				j.SubscribeTo(cn.box)
			}
			if refused != nil && !cn.refuse(ctx, refused) {
				return
			}
			at += chunk
		}
		seq += uint64(len(items))
	}
}

// write is the writer half: take whatever has completed or been refused,
// encode it as result frames, and flush — one wake-up, one pass over the
// outbox's chain and one syscall per drain.
//
// Before it flushes it may hold: while records that were in flight when it
// woke still are, the last drain added something, the frame has room, and
// records have been landing on this connection closer together than one of
// its socket writes takes (gapNS < flushNS, two averages it keeps), it
// yields once and drains again — results that arrive faster than they can
// be flushed one drain at a time coalesce anyway, a write late; holding
// makes that the plan instead of the backlog. Both sides are measured
// here, per connection, from clock readings the stage clock takes anyway:
// a frame of no-op jobs lands 64 results in the time of a few writes and
// leaves as one result frame; results a millisecond apart, or one to a
// frame, flush at once. An empty drain ends the hold: it never blocks and
// never waits on a clock.
func (cn *conn) write(ctx context.Context) {
	defer cn.cancel() // writer gone → reader must stop admitting
	s := cn.s
	enc := wire.NewEncoder(cn.c, s.bufs)
	defer enc.Close()
	var (
		out  []wire.ResultRecord
		jobs []*xomp.Job
		// The hold rule's two sides, averaged over this connection's
		// flushes (α = ¼, like prof.Heat; zero = not measured
		// yet): what one socket write took, and how far apart the records
		// a flush carried had landed — the time since the flush before it
		// over their number.
		flushNS, gapNS int64
		lastFlush      time.Time
	)
	average := func(avg *int64, ns int64) {
		if *avg == 0 {
			*avg = max(1, ns)
		} else {
			*avg += (ns - *avg) / 4
		}
	}
	for {
		out = out[:0]
		select {
		case <-cn.box.Note():
		case recs := <-cn.refusals:
			out = append(out, recs...)
		case <-ctx.Done():
			return
		}
		// One clock read per wake-up: it stops the first-done stage a
		// reader armed and starts this flush's.
		woke := time.Now()
		refused := len(out)
		// What is in flight now is what a hold may wait for: frames let in
		// later do not extend it, so a pipelining client cannot starve its
		// own results.
		owed := cn.sent.Load() - cn.reported.Load()
		for {
			had := len(out)
			jobs = cn.box.Take(jobs[:0])
			for _, j := range jobs {
				out = append(out, jobResult(j))
			}
			xomp.ReleaseJobs(jobs) // the handles are dead past this point
		refusals:
			for {
				select {
				case recs := <-cn.refusals:
					out = append(out, recs...)
					refused += len(recs)
				default:
					break refusals
				}
			}
			added := len(out) - had
			if added == 0 || uint64(len(out)) >= owed || len(out) >= wire.MaxResultsPerFrame ||
				gapNS == 0 || gapNS >= flushNS {
				break
			}
			if h := s.holdHook; h != nil {
				h(added)
			}
			runtime.Gosched()
			// What lands during the yield finds the box empty and posts a
			// token; the drain that follows answers it, so it is taken
			// first — left standing, it would wake the writer to nothing.
			select {
			case <-cn.box.Note():
			default:
			}
		}
		if len(out) == 0 {
			continue // the token of a push an earlier drain already took
		}
		if len(out) > refused { // a completed job, not only refusals
			if at := cn.admitted.Swap(0); at != 0 {
				s.wire.RecordStage(prof.StageFirstDone, int64(woke.Sub(s.epoch))-at)
			}
		}
		// Encode in frame-safe chunks before the single flush: a drain is
		// bounded by the window, not by a frame, and a near-MaxBatch batch
		// of OK records can overflow MaxFrame — an oversized drain becomes
		// several frames in one flush.
		for at := 0; at < len(out); {
			n := min(len(out)-at, wire.MaxResultsPerFrame)
			if err := enc.Results(out[at : at+n]); err != nil {
				return // malformed record; conn is unusable
			}
			at += n
		}
		encoded := time.Since(woke)
		n, err := enc.Flush()
		if err != nil {
			return // peer gone; reader will notice via cancel
		}
		// Flushed is reported: the window's one release.
		cn.reported.Add(uint64(len(out)))
		select {
		case cn.room <- struct{}{}:
		default:
		}
		flushed := time.Since(woke)
		average(&flushNS, int64(flushed-encoded))
		now := woke.Add(flushed)
		if !lastFlush.IsZero() {
			average(&gapNS, int64(now.Sub(lastFlush))/int64(len(out)))
		}
		lastFlush = now
		s.wire.RecordStage(prof.StageFlush, int64(flushed))
		s.wire.FlushOut(n)
		s.wire.ResultOut(len(out), refused)
	}
}

// jobResult converts one completed job to its wire record.
func jobResult(j *xomp.Job) wire.ResultRecord {
	rec := wire.ResultRecord{Seq: j.Tag(), Status: wire.StatusOK}
	if j.Err() != nil {
		rec.Status = wire.StatusPanicked
	} else {
		rec.QueueNS = max(0, int64(j.QueueDelay()))
		rec.RunNS = max(0, int64(j.RunTime()))
	}
	return rec
}

// noopBody is the shared zero-size synthetic body: the wire fast path's
// job, allocation-free by construction.
func noopBody(*xomp.Worker) {}

// bodyFor turns a submit record's workload selector into a task body:
// a named app runs a recycled BOTS instance from the app's pool
// (bots.Get; an instance serves one job at a time and goes back to the
// pool when its run ends), a synthetic size a spin tree fanned over a
// handful of subtasks, and size zero the shared noop. An unknown app
// yields nil, which the pool refuses as a validation error
// (StatusInvalid on the wire).
func (s *Server) bodyFor(r *wire.SubmitRecord) xomp.TaskFunc {
	if len(r.App) > 0 {
		in := bots.Get(string(r.App), s.cfg.Scale)
		if in == nil {
			return nil
		}
		return in.Body
	}
	size := r.Size
	if size == 0 {
		return noopBody
	}
	fan := 1 + size/8192
	if fan > 8 {
		fan = 8
	}
	chunk := size / fan
	return func(w *xomp.Worker) {
		for t := 0; t < fan; t++ {
			w.Spawn(func(*xomp.Worker) { simnuma.Spin(chunk) })
		}
		w.TaskWait()
	}
}

// statusFor maps the submit path's typed errors onto wire statuses.
// repolint's admiterr analyzer holds this exhaustive: every xomp
// sentinel and every non-exempt status must appear, so adding a
// sentinel without a wire mapping fails the lint, not the client.
func statusFor(err error) wire.Status {
	switch {
	case errors.Is(err, xomp.ErrBacklogFull):
		return wire.StatusBacklogFull
	case errors.Is(err, xomp.ErrShed):
		return wire.StatusShed
	case errors.Is(err, xomp.ErrDeadlineExceeded):
		return wire.StatusExpired
	case errors.Is(err, xomp.ErrClosed), errors.Is(err, xomp.ErrNotServing):
		// A pool that is not serving is indistinguishable from a closed
		// one to a remote client: stop submitting here.
		return wire.StatusClosed
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return wire.StatusCanceled
	case errors.Is(err, xomp.ErrNilFunc), errors.Is(err, xomp.ErrInvalid):
		// ErrNilFunc wraps ErrInvalid; it is listed so the mapping reads
		// as the complete sentinel vocabulary.
		return wire.StatusInvalid
	}
	return wire.StatusInvalid
}
