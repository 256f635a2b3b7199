package jobserve_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/jobserve"
	"repro/internal/load"
	"repro/internal/prof"
	"repro/internal/wire"
	"repro/xomp"
)

// testPool builds the pool shape both sides of the parity test use.
func testPool(t *testing.T, admit load.AdmitPolicy, backlog int) *xomp.ShardedPool {
	t.Helper()
	team := xomp.Preset("xgomptb", 2)
	team.Backlog = backlog
	team.Admit = admit
	pool := xomp.MustShardedPool(xomp.ShardConfig{Shards: 2, Team: team})
	t.Cleanup(func() {
		if err := pool.Close(); err != nil {
			t.Error(err)
		}
	})
	return pool
}

// startFunc is jobserve.Serve or its poller-less twin.
type startFunc func(net.Listener, jobserve.Config) (*jobserve.Server, error)

// readerPaths runs body against both reader paths: with the edge poller
// (Serve) and without it (ServePlain — which is also all Serve is off
// Linux).
func readerPaths(t *testing.T, body func(*testing.T, startFunc)) {
	t.Run("poller", func(t *testing.T) { body(t, jobserve.Serve) })
	t.Run("plain", func(t *testing.T) { body(t, jobserve.ServePlain) })
}

// serve starts a Server for pool on a loopback listener.
func serve(t *testing.T, start startFunc, pool *xomp.ShardedPool, window int) *jobserve.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := start(ln, jobserve.Config{Pool: pool, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// workload builds the deterministic mixed class/tenant record set shared
// by the wire and local halves of the parity test.
func workload(n int) []wire.SubmitRecord {
	recs := make([]wire.SubmitRecord, n)
	for i := range recs {
		recs[i] = wire.SubmitRecord{
			Class:             i % int(load.NumClasses),
			TenantID:          1 + i%4,
			TenantMilliWeight: 1000 * (1 + i%4),
			Size:              (i % 3) * 2048,
		}
	}
	return recs
}

// admitTotals sums a pool's per-class and per-tenant admission counters
// across shards.
func admitTotals(pool *xomp.ShardedPool) (class [load.NumClasses]uint64, tenant map[int]uint64, completed map[int]uint64) {
	tenant = make(map[int]uint64)
	completed = make(map[int]uint64)
	for s := 0; s < pool.Shards(); s++ {
		p := pool.Team(s).Profile()
		for c := 0; c < int(load.NumClasses); c++ {
			class[c] += p.AdmitCount(c, prof.AdmitAdmitted)
		}
		tenants := p.Tenants()
		for id := 1; id <= 4; id++ {
			tenant[id] += tenants[id].Counts[prof.AdmitAdmitted]
			completed[id] += tenants[id].Completed
		}
	}
	return class, tenant, completed
}

// TestServeAccountingMatchesLocal is the parity gate from the issue: the
// same mixed class/tenant workload submitted over the wire by several
// concurrent connections must leave exactly the per-class and per-tenant
// admission accounting that direct SubmitBatchCtx calls leave on an
// identical pool.
func TestServeAccountingMatchesLocal(t *testing.T) { readerPaths(t, testServeAccountingMatchesLocal) }

func testServeAccountingMatchesLocal(t *testing.T, start startFunc) {
	const (
		total   = 400
		conns   = 4
		batch   = 16
		perConn = total / conns
	)
	recs := workload(total)

	// Wire half: four concurrent client connections, each submitting its
	// quarter in frames of `batch` records and draining all results.
	wirePool := testPool(t, nil, 256)
	srv := serve(t, start, wirePool, 64)
	var wg sync.WaitGroup
	okCount := make([]int, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := jobserve.Dial(srv.Addr().String(), nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			mine := recs[ci*perConn : (ci+1)*perConn]
			var recvWG sync.WaitGroup
			recvWG.Add(1)
			go func() {
				defer recvWG.Done()
				got := 0
				for got < len(mine) {
					rs, err := cl.Recv()
					if err != nil {
						t.Errorf("conn %d: recv after %d results: %v", ci, got, err)
						return
					}
					for _, r := range rs {
						if r.Status != wire.StatusOK {
							t.Errorf("conn %d: seq %d status %v", ci, r.Seq, r.Status)
							return
						}
						got++
					}
				}
				okCount[ci] = got
			}()
			for at := 0; at < len(mine); at += batch {
				end := at + batch
				if end > len(mine) {
					end = len(mine)
				}
				if _, err := cl.Submit(mine[at:end]); err != nil {
					t.Errorf("conn %d: submit: %v", ci, err)
					return
				}
				if err := cl.Flush(); err != nil {
					t.Errorf("conn %d: flush: %v", ci, err)
					return
				}
			}
			recvWG.Wait()
		}(ci)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("wire half failed")
	}
	gotOK := 0
	for _, n := range okCount {
		gotOK += n
	}
	if gotOK != total {
		t.Fatalf("wire run completed %d of %d jobs", gotOK, total)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ws := srv.Wire()
	if ws.JobsIn != total || ws.ResultsOut != total || ws.Refused != 0 {
		t.Fatalf("wire counters: %+v", ws)
	}
	if ws.ConnsOpened != conns || ws.ConnsClosed != conns {
		t.Fatalf("conn counters: %+v", ws)
	}
	// The stage clock ticks per frame and per flush, never per job: one
	// admit sample per submit frame, one flush sample per result write,
	// and at most one first-done sample per admitted frame.
	st := srv.Stages()
	if got := st[prof.StageAdmit].Count(); got != ws.FramesIn {
		t.Fatalf("admit stage has %d samples for %d frames in", got, ws.FramesIn)
	}
	if got := st[prof.StageFlush].Count(); got != ws.FramesOut {
		t.Fatalf("flush stage has %d samples for %d flushes", got, ws.FramesOut)
	}
	if got := st[prof.StageFirstDone].Count(); got == 0 || got > ws.FramesIn {
		t.Fatalf("first-done stage has %d samples for %d frames in", got, ws.FramesIn)
	}

	// Local half: identical records through SubmitBatchCtx directly.
	localPool := testPool(t, nil, 256)
	for at := 0; at < total; at += batch {
		items := make([]xomp.BatchItem, batch)
		for i := range items {
			r := recs[at+i]
			items[i] = xomp.BatchItem{
				Fn: func(*xomp.Worker) {},
				Opts: xomp.SubmitOpts{
					Priority: load.Class(r.Class),
					Tenant:   load.Tenant{ID: r.TenantID, Weight: float64(r.TenantMilliWeight) / 1000},
				},
			}
		}
		res := make([]xomp.BatchResult, len(items))
		if err := localPool.SubmitBatchCtx(context.Background(), items, res); err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if err := r.Job.Wait(); err != nil {
				t.Fatal(err)
			}
			r.Job.Release()
		}
	}

	wireClass, wireTenant, wireDone := admitTotals(wirePool)
	localClass, localTenant, localDone := admitTotals(localPool)
	if wireClass != localClass {
		t.Fatalf("per-class admits: wire %v, local %v", wireClass, localClass)
	}
	for id := 1; id <= 4; id++ {
		if wireTenant[id] != localTenant[id] {
			t.Fatalf("tenant %d admits: wire %d, local %d", id, wireTenant[id], localTenant[id])
		}
		if wireDone[id] != localDone[id] {
			t.Fatalf("tenant %d completions: wire %d, local %d", id, wireDone[id], localDone[id])
		}
	}
}

// TestServeRefusalStatuses: admission refusals must come back as typed
// per-job statuses, and the client-side status tally must equal the
// pool's own admission counters record-for-record.
func TestServeRefusalStatuses(t *testing.T) { readerPaths(t, testServeRefusalStatuses) }

func testServeRefusalStatuses(t *testing.T, start startFunc) {
	pool := testPool(t, load.RejectWhenFull{}, 8)
	srv := serve(t, start, pool, 0)
	defer srv.Close()
	cl, err := jobserve.Dial(srv.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 200
	recs := make([]wire.SubmitRecord, n)
	for i := range recs {
		recs[i] = wire.SubmitRecord{Size: 500_000}
	}
	if _, err := cl.Submit(recs); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	var ok, full, other int
	seen := make(map[uint64]bool, n)
	for ok+full+other < n {
		rs, err := cl.Recv()
		if err != nil {
			t.Fatalf("recv after %d results: %v", ok+full+other, err)
		}
		for _, r := range rs {
			if seen[r.Seq] {
				t.Fatalf("seq %d reported twice", r.Seq)
			}
			seen[r.Seq] = true
			switch r.Status {
			case wire.StatusOK:
				ok++
			case wire.StatusBacklogFull:
				full++
			default:
				other++
			}
		}
	}
	if other != 0 {
		t.Fatalf("unexpected statuses: ok %d, backlog-full %d, other %d", ok, full, other)
	}
	if ok == 0 || full == 0 {
		t.Fatalf("want both outcomes under overload, got ok %d, backlog-full %d", ok, full)
	}
	var admitted, rejected uint64
	for s := 0; s < pool.Shards(); s++ {
		p := pool.Team(s).Profile()
		for c := 0; c < int(load.NumClasses); c++ {
			admitted += p.AdmitCount(c, prof.AdmitAdmitted)
			rejected += p.AdmitCount(c, prof.AdmitRejected)
		}
	}
	if uint64(ok) != admitted || uint64(full) != rejected {
		t.Fatalf("client saw ok %d/full %d, pool counted admitted %d/rejected %d", ok, full, admitted, rejected)
	}
	if ws := srv.Wire(); ws.Refused != uint64(full) {
		t.Fatalf("wire Refused %d, want %d", ws.Refused, full)
	}
}

// TestServeClientVanishesMidStream: a client that dies with results in
// flight must not wedge the server — its connection context cancels,
// the goroutine pair drains, and the server serves the next client.
func TestServeClientVanishesMidStream(t *testing.T) { readerPaths(t, testServeClientVanishesMidStream) }

func testServeClientVanishesMidStream(t *testing.T, start startFunc) {
	pool := testPool(t, nil, 256)
	srv := serve(t, start, pool, 32)
	defer srv.Close()

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
	// Take one result so the stream is provably mid-flight, then vanish.
	if _, err := cl.Recv(); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	// The severed connection must fully retire...
	deadline := time.Now().Add(5 * time.Second)
	for {
		ws := srv.Wire()
		if ws.ConnsClosed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("severed conn never retired: %+v", ws)
		}
		time.Sleep(time.Millisecond)
	}
	// ...and an unrelated new client must still get full service.
	cl2, err := jobserve.Dial(srv.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.Submit([]wire.SubmitRecord{{}}); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Flush(); err != nil {
		t.Fatal(err)
	}
	rs, err := cl2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Status != wire.StatusOK {
		t.Fatalf("post-sever service broken: %+v", rs)
	}
}

// TestServerCloseWithInflightConns: Close while connections hold jobs in
// flight must sever them, drain both goroutine halves, and return — the
// pool (still open) finishes the work on its own time.
func TestServerCloseWithInflightConns(t *testing.T) { readerPaths(t, testServerCloseWithInflightConns) }

func testServerCloseWithInflightConns(t *testing.T, start startFunc) {
	pool := testPool(t, nil, 256)
	srv := serve(t, start, pool, 64)
	const conns = 3
	clients := make([]*jobserve.Client, conns)
	for i := range clients {
		cl, err := jobserve.Dial(srv.Addr().String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
		recs := make([]wire.SubmitRecord, 32)
		for j := range recs {
			recs[j] = wire.SubmitRecord{Size: 200_000}
		}
		if _, err := cl.Submit(recs); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Dial returns when the kernel completes the handshake, not when the
	// accept goroutine has run: closing now could sever the listener with
	// connections still in its backlog, which the server never opened.
	for deadline := time.Now().Add(5 * time.Second); srv.Wire().ConnsOpened != conns; {
		if time.Now().After(deadline) {
			t.Fatalf("server accepted %d of %d connections in 5s", srv.Wire().ConnsOpened, conns)
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged on in-flight connections")
	}
	ws := srv.Wire()
	if ws.ConnsOpened != conns || ws.ConnsClosed != conns {
		t.Fatalf("conn counters after Close: %+v", ws)
	}
	for _, cl := range clients {
		cl.Close()
	}
}

// TestServeRecyclesAppInstances: named apps run on instances recycled
// from their pools, so one connection submitting the same apps again and
// again — more jobs in flight than one instance could serve — sees every
// result StatusOK, while an unknown app is still refused as invalid.
func TestServeRecyclesAppInstances(t *testing.T) { readerPaths(t, testServeRecyclesAppInstances) }

func testServeRecyclesAppInstances(t *testing.T, start startFunc) {
	pool := testPool(t, nil, 256)
	srv := serve(t, start, pool, 0)
	defer srv.Close()
	cl, err := jobserve.Dial(srv.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const frames, perFrame = 8, 6
	apps := []string{"sort", "fib", "nqueens"}
	n := 0
	for f := 0; f < frames; f++ {
		recs := make([]wire.SubmitRecord, perFrame)
		for i := range recs {
			recs[i] = wire.SubmitRecord{App: []byte(apps[i%len(apps)])}
		}
		if f == frames/2 {
			recs[0].App = []byte("nosuchapp")
		}
		if _, err := cl.Submit(recs); err != nil {
			t.Fatal(err)
		}
		n += len(recs)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	var ok, invalid, other int
	for ok+invalid+other < n {
		rs, err := cl.Recv()
		if err != nil {
			t.Fatalf("recv after %d results: %v", ok+invalid+other, err)
		}
		for _, r := range rs {
			switch r.Status {
			case wire.StatusOK:
				ok++
			case wire.StatusInvalid:
				invalid++
			default:
				other++
			}
		}
	}
	if ok != n-1 || invalid != 1 || other != 0 {
		t.Fatalf("ok %d, invalid %d, other %d; want %d, 1, 0", ok, invalid, other, n-1)
	}
}
