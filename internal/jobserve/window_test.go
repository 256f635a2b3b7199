package jobserve_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobserve"
	"repro/internal/load"
	"repro/internal/wire"
	"repro/xomp"
)

// windowWatch is the test's view of one server's connection windows.
type windowWatch struct {
	t      *testing.T
	window uint64

	mu       sync.Mutex
	sent     uint64         // the last raise's sent
	reported *atomic.Uint64 // that connection's flushed-records counter
}

// raised is the window hook: it runs on the reader, right after a raise.
func (w *windowWatch) raised(sent uint64, reported *atomic.Uint64) {
	if in := sent - reported.Load(); in > w.window {
		w.t.Errorf("%d records in the window, bound %d", in, w.window)
	}
	w.mu.Lock()
	w.sent, w.reported = sent, reported
	w.mu.Unlock()
}

// open reports how many records the watched connection still holds.
func (w *windowWatch) open() (sent, unreported uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sent, w.sent - w.reported.Load()
}

// eventually polls cond until it holds, failing the test after 5 s.
func eventually(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// tinyPool is one single-worker shard that refuses instead of queueing
// past one job, so a window of four overruns it and refusals interleave
// with completions on the connection.
func tinyPool(t *testing.T) *xomp.ShardedPool {
	team := xomp.Preset("xgomptb", 1)
	team.Backlog = 1
	team.Admit = load.RejectWhenFull{}
	pool := xomp.MustShardedPool(xomp.ShardConfig{Shards: 1, Team: team})
	t.Cleanup(func() {
		if err := pool.Close(); err != nil {
			t.Error(err)
		}
	})
	return pool
}

// TestWindowCountsEveryRecordOnce holds the counted window to its
// contract at the bounds where it binds: never more than Window records
// decoded and not yet flushed — jobs and refusals alike, frames smaller
// than, equal to and larger than the window — and none once the client
// has drained every result.
func TestWindowCountsEveryRecordOnce(t *testing.T) { readerPaths(t, testWindowCountsEveryRecordOnce) }

func testWindowCountsEveryRecordOnce(t *testing.T, start startFunc) {
	const total = 128
	for _, window := range []int{1, 4} {
		for _, frame := range []int{1, 4, 5, 64} {
			t.Run(fmt.Sprintf("window%d/frame%d", window, frame), func(t *testing.T) {
				srv := serve(t, start, tinyPool(t), window)
				defer srv.Close()
				watch := &windowWatch{t: t, window: uint64(window)}
				srv.WatchWindow(watch.raised)
				cl, err := jobserve.Dial(srv.Addr().String(), nil)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()

				sendErr := make(chan error, 1)
				go func() { // the submit half: pipelined, never waits for results
					recs := make([]wire.SubmitRecord, frame)
					for i := range recs {
						recs[i] = wire.SubmitRecord{Size: 20_000}
					}
					for sent := 0; sent < total; sent += frame {
						if _, err := cl.Submit(recs); err != nil {
							sendErr <- err
							return
						}
						if err := cl.Flush(); err != nil {
							sendErr <- err
							return
						}
					}
					sendErr <- nil
				}()
				n := (total + frame - 1) / frame * frame
				seen := make(map[uint64]bool, n)
				var ok, full int
				for ok+full < n {
					rs, err := cl.Recv()
					if err != nil {
						t.Fatalf("recv after %d results: %v", ok+full, err)
					}
					for _, r := range rs {
						switch {
						case seen[r.Seq]:
							t.Fatalf("seq %d reported twice", r.Seq)
						case r.Status == wire.StatusOK:
							ok++
						case r.Status == wire.StatusBacklogFull:
							full++
						default:
							t.Fatalf("seq %d: status %v", r.Seq, r.Status)
						}
						seen[r.Seq] = true
					}
				}
				if err := <-sendErr; err != nil {
					t.Fatal(err)
				}
				if window > 1 && frame > 1 && (ok == 0 || full == 0) {
					t.Fatalf("want completions and refusals interleaved, got ok %d, backlog-full %d", ok, full)
				}
				// The client may read the last frame before the writer has
				// counted its flush; it counts it without further input.
				eventually(t, func() bool { _, open := watch.open(); return open == 0 }, "the window to empty")
				if sent, _ := watch.open(); sent != uint64(n) {
					t.Fatalf("reader let %d records in, client sent %d", sent, n)
				}
			})
		}
	}
}

// TestWindowBalancesOverManyFrames is the window's conservation law at
// length: a pipelining client sends frames of mixed sizes — smaller than,
// equal to and larger than the window, refusals (records the pool rejects
// as invalid) interleaved with no-op completions — and when the last
// result is in, every record has been reported exactly once, slots
// acquired equal slots released, and no writer ever held across a drain
// that added nothing.
func TestWindowBalancesOverManyFrames(t *testing.T) {
	readerPaths(t, testWindowBalancesOverManyFrames)
}

func testWindowBalancesOverManyFrames(t *testing.T, start startFunc) {
	frames := 10_000
	if raceEnabled() && !testing.Short() {
		frames = 100_000
	}
	const window = 16
	sizes := []int{1, 2, 3, 5, 8, 13, 16, 21, 64}
	pool := xomp.MustShardedPool(xomp.ShardConfig{Shards: 1, Team: xomp.Preset("xgomptb", 2)})
	defer pool.Close()
	srv := serve(t, start, pool, window)
	defer srv.Close()
	watch := &windowWatch{t: t, window: window}
	srv.WatchWindow(watch.raised)
	var holds, emptyHolds atomic.Int64
	srv.WatchHolds(func(added int) {
		holds.Add(1)
		if added <= 0 {
			emptyHolds.Add(1)
		}
	})
	cl, err := jobserve.Dial(srv.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	total := 0
	for f := 0; f < frames; f++ {
		total += sizes[f%len(sizes)]
	}
	invalid := func(seq int) bool { return seq%7 == 3 }
	sendErr := make(chan error, 1)
	go func() { // the submit half: pipelined, never waits for results
		seq := 0
		recs := make([]wire.SubmitRecord, 64)
		for f := 0; f < frames; f++ {
			frame := recs[:sizes[f%len(sizes)]]
			for i := range frame {
				frame[i] = wire.SubmitRecord{}
				if invalid(seq) {
					frame[i].Class = 99
				}
				seq++
			}
			if _, err := cl.Submit(frame); err != nil {
				sendErr <- err
				return
			}
			if err := cl.Flush(); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	seen := make([]bool, total)
	for n := 0; n < total; {
		rs, err := cl.Recv()
		if err != nil {
			t.Fatalf("recv after %d of %d results: %v", n, total, err)
		}
		for _, r := range rs {
			want := wire.StatusOK
			if r.Seq < uint64(total) && invalid(int(r.Seq)) {
				want = wire.StatusInvalid
			}
			if r.Seq >= uint64(total) || seen[r.Seq] || r.Status != want {
				t.Fatalf("seq %d status %v: out of range, reported twice, or not %v", r.Seq, r.Status, want)
			}
			seen[r.Seq] = true
		}
		n += len(rs)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	eventually(t, func() bool { _, open := watch.open(); return open == 0 }, "the window to empty")
	if sent, _ := watch.open(); sent != uint64(total) {
		t.Fatalf("reader let %d records in, client sent %d", sent, total)
	}
	if emptyHolds.Load() != 0 {
		t.Fatalf("%d of %d holds followed a drain that added nothing", emptyHolds.Load(), holds.Load())
	}
	t.Logf("%d frames, %d records, %d holds", frames, total, holds.Load())
}

// TestWindowReleasedByAVanishedClient: a client that dies while its
// reader waits on a full window — results and refusals still owed — takes
// the whole goroutine pair with it, and the server keeps serving.
func TestWindowReleasedByAVanishedClient(t *testing.T) {
	readerPaths(t, testWindowReleasedByAVanishedClient)
}

func testWindowReleasedByAVanishedClient(t *testing.T, start startFunc) {
	for _, window := range []int{1, 4} {
		srv := serve(t, start, tinyPool(t), window)
		cl, err := jobserve.Dial(srv.Addr().String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]wire.SubmitRecord, 64)
		for i := range recs {
			recs[i] = wire.SubmitRecord{Size: 100_000}
		}
		if _, err := cl.Submit(recs); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Recv(); err != nil { // provably mid-stream
			t.Fatal(err)
		}
		cl.Close()
		// handle counts the connection closed only after it has joined its
		// writer, so the count is both goroutines gone.
		eventually(t, func() bool { return srv.Wire().ConnsClosed == 1 }, "the severed connection to retire")
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
