package jobserve

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/wire"
	"repro/xomp"
)

// writerRig is one connection's writer half on a real loopback socket,
// with the test standing in for the reader, the workers and the client: it
// raises sent, delivers finished jobs and refusals by hand, and decodes
// what the writer flushes.
type writerRig struct {
	t      *testing.T
	cn     *conn
	pool   *xomp.ShardedPool
	dec    *wire.Decoder
	gone   chan struct{} // closed when write returns
	cancel context.CancelFunc
	seq    uint64

	mu     sync.Mutex
	holds  []int
	onHold func() // runs on the writer, just before its yield, once
}

func newWriterRig(t *testing.T) *writerRig {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	r := &writerRig{t: t, gone: make(chan struct{})}
	r.pool = xomp.MustShardedPool(xomp.ShardConfig{Shards: 1, Team: xomp.Preset("xgomptb", 2)})
	s := &Server{cfg: Config{Pool: r.pool, Window: DefaultWindow}, bufs: alloc.NewBufPool(), epoch: time.Now()}
	s.holdHook = func(added int) {
		r.mu.Lock()
		r.holds = append(r.holds, added)
		f := r.onHold
		r.onHold = nil
		r.mu.Unlock()
		if f != nil {
			f()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.cn = &conn{
		s: s, c: server, cancel: cancel,
		box:      xomp.NewOutbox(),
		refusals: make(chan []wire.ResultRecord, 8),
		room:     make(chan struct{}, 1),
	}
	r.dec = wire.NewDecoder(client, nil)
	go func() {
		defer close(r.gone)
		r.cn.write(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		client.Close()
		server.Close()
		<-r.gone
		if err := r.pool.Close(); err != nil {
			t.Error(err)
		}
	})
	return r
}

// finished runs fn as a job to completion and returns its handle, tagged
// with the next sequence number and counted into the window, but not yet
// delivered.
func (r *writerRig) finished(fn xomp.TaskFunc) *xomp.Job {
	r.t.Helper()
	res := make([]xomp.BatchResult, 1)
	err := r.pool.SubmitBatchCtx(context.Background(), []xomp.BatchItem{{Fn: fn}}, res)
	if err != nil || res[0].Err != nil {
		r.t.Fatal(err, res)
	}
	j := res[0].Job
	j.Wait() // the outcome is read from the result record
	j.SetTag(r.seq)
	r.seq++
	r.cn.sent.Add(1)
	return j
}

// frame reads the next result frame.
func (r *writerRig) frame() []wire.ResultRecord {
	r.t.Helper()
	type got struct {
		recs []wire.ResultRecord
		err  error
	}
	ch := make(chan got, 1)
	go func() {
		_, err := r.dec.Next()
		ch <- got{append([]wire.ResultRecord(nil), r.dec.Results()...), err}
	}()
	select {
	case g := <-ch:
		if g.err != nil {
			r.t.Fatalf("reading a result frame: %v", g.err)
		}
		return g.recs
	case <-time.After(5 * time.Second):
		r.t.Fatal("the writer never flushed")
		return nil
	}
}

// settled waits for the window to read what the test expects: records let
// in, records flushed.
func (r *writerRig) settled(unreported uint64) {
	r.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); r.cn.sent.Load()-r.cn.reported.Load() != unreported; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("window holds %d records, want %d", r.cn.sent.Load()-r.cn.reported.Load(), unreported)
		}
	}
}

func noop(*xomp.Worker) {}

// hot makes the connection look busy to its writer: a run of flushes that
// each carry thousands of (refusal) records, so the average gap between
// records falls far below what a socket write costs. Each scenario heats
// it afresh, and the run must be long enough for the writer's ¼-weight
// average to forget the previous scenario's gaps, which were one record a
// flush and milliseconds apart: after 16 flushes of 512 a few runs in a
// hundred still read the gap above the write cost, and the writer rightly
// did not hold. 32 flushes leave ¾³² ≈ 10⁻⁴ of the old gap.
func (r *writerRig) hot() {
	r.t.Helper()
	const bursts, each = 32, 2048
	for b := 0; b < bursts; b++ {
		recs := make([]wire.ResultRecord, each)
		for i := range recs {
			recs[i] = wire.ResultRecord{Seq: r.seq, Status: wire.StatusShed}
			r.seq++
		}
		r.cn.sent.Add(each)
		r.cn.refusals <- recs
		for got := 0; got < each; {
			got += len(r.frame())
		}
	}
	r.settled(0)
}

// TestWriterHold drives the hold rule through every way a held frame can
// end: its window-mate lands (a completion, a panicked job, a refusal),
// nothing lands, or the connection is cancelled — and in each the writer
// flushes what it holds, counts it out of the window exactly once, and
// never yields twice in a row without a drain that added something.
func TestWriterHold(t *testing.T) {
	r := newWriterRig(t)
	// With nothing measured yet the writer never holds: a lone result with
	// a mate in flight goes out at once.
	first := r.finished(noop)
	r.finished(noop).SubscribeTo(r.cn.box)
	if got := r.frame(); len(got) != 1 || got[0].Status != wire.StatusOK {
		t.Fatalf("first flush: %+v", got)
	}
	first.SubscribeTo(r.cn.box)
	r.frame()
	r.settled(0)
	r.mu.Lock()
	if len(r.holds) != 0 {
		t.Fatalf("%d holds before the writer had measured anything", len(r.holds))
	}
	r.mu.Unlock()

	// heldPair delivers a finished no-op job, then — from inside the
	// writer's hold on it — the mate that mate() prepared.
	heldPair := func(name string, mate func() (deliver func()), want wire.Status) {
		t.Helper()
		r.hot()
		head := r.finished(noop)
		seq := head.Tag()
		deliver := mate()
		r.mu.Lock()
		before := len(r.holds)
		r.onHold = deliver // lands while the writer is yielding
		r.mu.Unlock()
		head.SubscribeTo(r.cn.box)
		got := r.frame()
		if len(got) != 2 || got[0].Seq != seq || got[0].Status != wire.StatusOK ||
			got[1].Seq != seq+1 || got[1].Status != want {
			t.Fatalf("%s: frame %+v, want seq %d ok and seq %d %v in one frame", name, got, seq, seq+1, want)
		}
		r.settled(0)
		r.mu.Lock()
		if len(r.holds) != before+1 {
			t.Fatalf("%s: %d holds for one held frame", name, len(r.holds)-before)
		}
		r.mu.Unlock()
	}

	heldPair("completion", func() func() {
		done := r.finished(noop)
		return func() { done.SubscribeTo(r.cn.box) }
	}, wire.StatusOK)
	heldPair("panic", func() func() {
		failed := r.finished(func(*xomp.Worker) { panic("boom") })
		return func() { failed.SubscribeTo(r.cn.box) }
	}, wire.StatusPanicked)
	heldPair("refusal", func() func() {
		r.cn.sent.Add(1) // a refused record was let in like any other
		rec := wire.ResultRecord{Seq: r.seq, Status: wire.StatusBacklogFull}
		r.seq++
		return func() { r.cn.refusals <- []wire.ResultRecord{rec} }
	}, wire.StatusBacklogFull)

	// Nothing lands during the yield: the empty drain ends the hold, the
	// head goes out alone, and its mate follows whenever it arrives.
	r.hot()
	head, late := r.finished(noop), r.finished(noop)
	head.SubscribeTo(r.cn.box)
	if got := r.frame(); len(got) != 1 || got[0].Seq != head.Tag() {
		t.Fatalf("stalled mate: frame %+v, want the head alone", got)
	}
	r.settled(1)
	late.SubscribeTo(r.cn.box)
	if got := r.frame(); len(got) != 1 {
		t.Fatalf("late mate: frame %+v", got)
	}
	r.settled(0)

	// Cancelled mid-hold: the writer still leaves, whether or not the
	// frame it held made it out.
	r.hot()
	last := r.finished(noop)
	r.finished(noop) // its mate, never delivered
	r.mu.Lock()
	r.onHold = r.cancel
	r.mu.Unlock()
	last.SubscribeTo(r.cn.box)
	select {
	case <-r.gone:
	case <-time.After(5 * time.Second):
		t.Fatal("writer still running after a cancel during a hold")
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	for i, added := range r.holds {
		if added <= 0 {
			t.Fatalf("hold %d followed a drain that added %d records", i, added)
		}
	}
}
