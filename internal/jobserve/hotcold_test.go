package jobserve_test

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobserve"
	"repro/internal/wire"
	"repro/xomp"
)

// edgeChildEnv marks a re-exec of the test binary as the hot/cold test's
// server child.
const edgeChildEnv = "JOBSERVE_EDGE_CHILD"

// TestEdgeChildServer is not a test: run as the child of
// TestNoStarvationBesideHotConn it serves no-op jobs on a loopback port
// until its stdin closes, then reports its edge counters.
func TestEdgeChildServer(t *testing.T) {
	if os.Getenv(edgeChildEnv) == "" {
		t.Skip("helper: runs only as TestNoStarvationBesideHotConn's server child")
	}
	pool := xomp.MustShardedPool(xomp.ShardConfig{Shards: 1, Team: xomp.Preset("xgomptb", 2)})
	defer pool.Close()
	srv := serve(t, jobserve.Serve, pool, 0)
	fmt.Printf("addr %s\n", srv.Addr())
	io.Copy(io.Discard, os.Stdin) // the parent closes it when done
	srv.Close()
	ws := srv.Wire()
	fmt.Printf("edge %d polls, %d hits, %d sweeps, %d kicks, %d parks, %d frames\n",
		ws.EdgePolls, ws.EdgePollHits, ws.EdgeSweeps, ws.EdgeKicks, ws.EdgeParks, ws.FramesIn)
}

// raceEnabled reports whether this binary was built with -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}

// roundTrip sends one no-op job and waits for its result.
func roundTrip(cl *jobserve.Client) error {
	if _, err := cl.Submit([]wire.SubmitRecord{{}}); err != nil {
		return err
	}
	if err := cl.Flush(); err != nil {
		return err
	}
	rs, err := cl.Recv()
	if err == nil && (len(rs) != 1 || rs[0].Status != wire.StatusOK) {
		err = fmt.Errorf("unexpected results %+v", rs)
	}
	return err
}

// coldMedian drives one frame per 5 ms for d and returns the median
// round trip.
func coldMedian(t *testing.T, cl *jobserve.Client, d time.Duration) time.Duration {
	t.Helper()
	var lat []time.Duration
	for end := time.Now().Add(d); time.Now().Before(end); {
		start := time.Now()
		if err := roundTrip(cl); err != nil {
			t.Fatalf("cold connection: %v", err)
		}
		lat = append(lat, time.Since(start))
		time.Sleep(5 * time.Millisecond)
	}
	slices.Sort(lat)
	return lat[len(lat)/2]
}

// TestNoStarvationBesideHotConn is fairness by test, not by argument. A
// reader that polls keeps its P busy, and a P that never runs dry never
// consults netpoll — so every reader that did park depends on the
// pollers' sweeps to be woken. The server runs as a child at
// GOMAXPROCS=1, the saturated case; one connection drives no-op round
// trips flat out, and a second, sending one frame per 5 ms, must still
// be answered in microseconds. (With the sweep reduced to "poll own
// socket only" the cold connection waits for sysmon's 10 ms netpoll and
// its median reads milliseconds.)
func TestNoStarvationBesideHotConn(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a child server for ~3s")
	}
	child := exec.Command(os.Args[0], "-test.run=^TestEdgeChildServer$", "-test.v")
	child.Env = append(os.Environ(), edgeChildEnv+"=1", "GOMAXPROCS=1")
	child.Stderr = os.Stderr
	stdin, err := child.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		stdin.Close() // also the child's cue on a failing path
		child.Wait()
	}()
	out := bufio.NewScanner(stdout)
	addr, found := "", false
	for !found {
		if !out.Scan() {
			t.Fatalf("child exited before serving: %v", out.Err())
		}
		addr, found = strings.CutPrefix(out.Text(), "addr ")
	}

	cold, err := jobserve.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	alone := coldMedian(t, cold, time.Second)

	hot, err := jobserve.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hot.Close()
	var (
		stop     atomic.Bool
		hotTrips int
		hotErr   error
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() && hotErr == nil {
			hotErr = roundTrip(hot)
			hotTrips++
		}
	}()
	beside := coldMedian(t, cold, 2*time.Second)
	stop.Store(true)
	wg.Wait()
	if hotErr != nil {
		t.Fatalf("hot connection: %v", hotErr)
	}

	stdin.Close()
	for out.Scan() {
		if line := out.Text(); strings.HasPrefix(line, "edge ") {
			t.Logf("server %s", line)
		}
	}
	t.Logf("cold median %v alone, %v beside a hot connection making %d round trips/s", alone, beside, hotTrips/2)
	ceiling := time.Millisecond
	if raceEnabled() {
		// Both processes run several times slower under the detector; a
		// starved connection would still read 5 ms and more.
		ceiling = 3 * time.Millisecond
	}
	if limit := min(ceiling, 5*alone); beside > limit {
		t.Fatalf("cold connection starved: median %v beside the hot one, %v alone (limit %v)", beside, alone, limit)
	}
}
