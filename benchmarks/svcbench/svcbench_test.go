package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/jobserve"
	"repro/internal/rng"
	"repro/internal/wire"
)

// testHarness builds jobserved once for the tests that need a real child.
var testHarness *harness

func TestMain(m *testing.M) {
	h, _, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench tests:", err)
		os.Exit(1)
	}
	h.warmScale = 0.05
	testHarness = h
	code := m.Run()
	killAll()
	os.Exit(code)
}

func TestOpenScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := openSchedule(7, 2000, 1.5, 2)
	b := openSchedule(7, 2000, 1.5, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, openSchedule(8, 2000, 1.5, 2)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	jobs := len(a[0].recs) + len(a[1].recs)
	if jobs < 2500 || jobs > 3500 {
		t.Fatalf("1.5s at 2000/s generated %d jobs", jobs)
	}
	for _, p := range a {
		if !slices.IsSorted(p.dueNS) {
			t.Fatal("due times out of order")
		}
	}
}

func TestQuantileMatchesSortedSliceOracle(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{1, 2, 7, 100, 1001} {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(r.Intn(1_000_000))
		}
		slices.Sort(v)
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			got := quantile(v, q)
			// Oracle: the value lies between the two closest ranks, and is
			// exactly the rank's value when q lands on one.
			pos := q * float64(n-1)
			lo, hi := v[int(math.Floor(pos))], v[int(math.Ceil(pos))]
			if got < float64(lo) || got > float64(hi) {
				t.Errorf("n=%d q=%v: %v outside [%d, %d]", n, q, got, lo, hi)
			}
			if pos == math.Floor(pos) && got != float64(lo) {
				t.Errorf("n=%d q=%v: %v, want rank value %d", n, q, got, lo)
			}
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("no samples must read 0")
	}
	if got := quantile([]int64{10, 20}, 0.5); got != 15 {
		t.Errorf("median of 10, 20 = %v", got)
	}
}

// The run's value is the mean of the two best reps in the metric's own
// direction, so a run of slow reps does not decide it.
func TestFoldTakesTheTwoBestReps(t *testing.T) {
	for _, tc := range []struct {
		reps   []float64
		better string
		want   float64
	}{
		{[]float64{180, 176, 290, 300, 170, 700, 181, 179}, "lower", 173},
		{[]float64{900, 1100, 910, 450, 905}, "higher", 1005},
		{[]float64{7}, "lower", 7},
		{nil, "lower", 0},
	} {
		if got := fold(tc.reps, tc.better); got != tc.want {
			t.Errorf("fold(%v, %s) = %v, want %v", tc.reps, tc.better, got, tc.want)
		}
	}
}

func TestUnionLenAndSelfTimesSumToTheRequest(t *testing.T) {
	if got := unionLen([]interval{{5, 10}, {0, 3}, {2, 6}, {20, 20}, {30, 25}}); got != 10 {
		t.Fatalf("unionLen = %d, want 10", got)
	}
	// One request of two jobs: sent over [0,30], results arrive in one frame
	// at 1000 (read blocked from 40) and are decoded until 1010.
	c := &clientConn{
		recvs: []recvSpan{{t0: 40, blocked: 960, t1: 1010}},
		jobs:  []jobSpan{{recv: 0, queueNS: 100, runNS: 300}, {recv: 0, queueNS: 500, runNS: 200}},
	}
	self, dur, _, ok := c.selfTimes(&reqSpan{firstSeq: 0, n: 2, t0: 0, encEnd: 10, flushEnd: 30}, nil)
	if !ok || dur != 1010 {
		t.Fatalf("dur %d ok %v", dur, ok)
	}
	want := [numSpans]int64{spEncode: 10, spFlush: 20, spDecode: 10, spRun: 300, spQueue: 400, spWait: 270}
	if self != want {
		t.Fatalf("self times %v, want %v", self, want)
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != dur {
		t.Fatalf("self times sum to %d, request took %d", sum, dur)
	}
}

// One stalled second must not decide the reported tail: it moves one
// window, and the median over windows ignores it.
func TestTypicalSecondP99IgnoresOneBadSecond(t *testing.T) {
	const perSecond, seconds = 1500, 5
	c := &clientConn{}
	for k := 0; k < seconds; k++ {
		c.secondAt = append(c.secondAt, len(c.res.lat))
		for i := 0; i < perSecond; i++ {
			v := int64(1000 + i) // p99 of a quiet second is about 2484
			if k == 2 {
				v += 1_000_000 // the stalled second
			}
			c.res.lat = append(c.res.lat, v)
		}
	}
	got, windows := typicalSecondP99([]*clientConn{c}, seconds)
	if windows != seconds || got < 2400 || got > 2500 {
		t.Errorf("typical-second p99 = %v over %d windows, want ~2484 over %d", got, windows, seconds)
	}
	whole := slices.Clone(c.res.lat)
	slices.Sort(whole)
	if quantile(whole, 0.99) < 1_000_000 {
		t.Error("the whole-window p99 should sit inside the stalled second; the test proves nothing")
	}
	// Too few samples per second: seconds are grouped until a window holds
	// a thousand, and a drive shorter than one window reports nothing.
	if _, windows := typicalSecondP99([]*clientConn{c}, 1); windows != 1 {
		t.Errorf("one second of 1500 samples gave %d windows", windows)
	}
	sparse := &clientConn{secondAt: []int{0, 400, 800}}
	sparse.res.lat = make([]int64, 1200)
	if _, windows := typicalSecondP99([]*clientConn{sparse}, 3); windows != 1 {
		t.Errorf("400 samples a second over 3s gave %d windows, want 1 of 3s", windows)
	}
	if _, windows := typicalSecondP99([]*clientConn{sparse}, 0); windows != 0 {
		t.Errorf("a sub-second drive gave %d windows", windows)
	}
}

// A sender that falls behind its schedule must charge the delay to the
// jobs it delayed: latency is anchored at the due time, not the send time.
func TestOpenLoopLatencyIsAnchoredAtTheDueTime(t *testing.T) {
	const stall = 40 * time.Millisecond
	cliSide, srvSide := net.Pipe()
	defer cliSide.Close()
	defer srvSide.Close()
	go func() { // a server that ignores the socket for a while, then answers at once
		time.Sleep(stall)
		dec, enc := wire.NewDecoder(srvSide, nil), wire.NewEncoder(srvSide, nil)
		var seq uint64
		for {
			if _, err := dec.Next(); err != nil {
				return
			}
			var out []wire.ResultRecord
			for range dec.Submits() {
				out = append(out, wire.ResultRecord{Seq: seq, Status: wire.StatusOK, RunNS: 1})
				seq++
			}
			if enc.Results(out) != nil {
				return
			}
			if _, err := enc.Flush(); err != nil {
				return
			}
		}
	}()
	wl := &workload{name: "t", rate: 1, hasWork: true}
	c := &clientConn{wl: wl, epoch: time.Now(), cl: jobserve.NewClient(cliSide, nil)}
	plan := connPlan{
		dueNS: []int64{0, int64(time.Millisecond)},
		recs:  []wire.SubmitRecord{{Size: 1}, {Size: 1}},
	}
	if err := c.openLoop(plan, 0); err != nil {
		t.Fatal(err)
	}
	if c.res.good != 2 || len(c.res.lat) != 2 {
		t.Fatalf("good %d, %d latencies", c.res.good, len(c.res.lat))
	}
	// The unbuffered pipe holds the first Flush until the server reads, so
	// the second job goes out ~39ms after it was due.
	floor := int64(stall - 2*time.Millisecond)
	if c.res.lat[1] < floor {
		t.Errorf("job due at 1ms, sent after the stall, reports latency %v", time.Duration(c.res.lat[1]))
	}
	if len(c.res.lag) != 2 || c.res.lag[1] < floor-int64(time.Millisecond) {
		t.Errorf("generator lag %v does not show the stall", c.res.lag)
	}
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(testHarness.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestManifestMatchesTheProgram(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program %q: %q", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is %d characters, want one line of at most 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got, want []metricDef, limit int) {
		if len(want) < 1 || len(want) > limit {
			t.Errorf("%s: %d metrics, limit %d", kind, len(want), limit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s differs:\nBENCHMARK.json %+v\nprogram        %+v", kind, got, want)
		}
		for _, d := range want {
			checkName(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better %q", d.Name, d.Better)
			}
			if d.Bound < 0 || d.Bound > 0.25 {
				t.Errorf("%s: bound %v", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16)
	check("per_layer", m.PerLayer, perLayer, 128)
	if !slices.ContainsFunc(endToEnd, func(d metricDef) bool {
		return d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}) {
		t.Error("no setup_s metric")
	}
	if !slices.Equal(m.Paths, []string{"benchmarks"}) || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
}

// A 200ms smoke of every pass of every workload against a real child: no
// job may fail, every check must hold, the run must print exactly the
// metrics BENCHMARK.json names, and the budget must account for the
// request span.
func TestSmokeEveryWorkload(t *testing.T) {
	set, err := testHarness.runSet(runSpec{workloads: workloads, seed: 5, seconds: 0.6, layers: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range set {
		if w.Failed != 0 || w.FailedShare != 0 || !w.Correct || w.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d violations %v", w.Name, w.Attempted, w.Failed, w.Violations)
		}
		w.Layers["harness.build_s"] = 0 // run() adds it
		if len(w.Layers) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, %d defined", w.Name, len(w.Layers), len(perLayer))
		}
		for _, d := range perLayer {
			if v, ok := w.Layers[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (reported %v)", w.Name, d.Name, v, ok)
			}
		}
		if w.Budget == nil || w.Budget.Requests == 0 || math.Abs(w.Budget.SumShare-1) > 0.05 {
			t.Errorf("%s: budget %+v does not sum to the request span", w.Name, w.Budget)
		}
		for _, k := range []string{"core.steal_req_per_job", "core.stolen_share"} {
			if w.Name != "bots-mix" && w.Layers[k] != 0 {
				t.Errorf("%s: %s = %v, want exactly 0 without task parallelism", w.Name, k, w.Layers[k])
			}
		}
		if _, err := os.Stat(filepath.Join(testHarness.out, "trace-"+w.Name+".jsonl")); err != nil {
			t.Error(err)
		}
	}
	// The end-to-end side: one more rep, long enough to hold one whole-second
	// p99 window, whose metrics must be the six.
	rep, err := testHarness.runRep(workloads[1], 5, 1.1, false)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.e2e
	for _, d := range endToEnd {
		if v, ok := got[d.Name]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v (reported %v)", d.Name, v, ok)
		}
	}
	if len(got) != len(endToEnd) || rep.failed != 0 || len(rep.violations) != 0 {
		t.Errorf("metrics %v, failed %d, violations %v", got, rep.failed, rep.violations)
	}
}

// waitForChild returns the one live child once it is listening.
func waitForChild(t *testing.T) *child {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		live.Lock()
		for c := range live.m {
			live.Unlock()
			c.mu.Lock()
			listening := len(c.stdout) > 0
			c.mu.Unlock()
			if listening {
				return c
			}
			live.Lock()
		}
		live.Unlock()
	}
	t.Fatal("no child started")
	return nil
}

// A server that stops answering mid-rep must fail the rep within the
// watchdog's slack, leave stack dumps, and leave no jobserved behind; a
// server that dies must fail it at once.
func TestWatchdogAndDeadChild(t *testing.T) {
	h := *testHarness
	h.slack = 300 * time.Millisecond
	for _, tc := range []struct {
		name    string
		sig     syscall.Signal
		wantErr error
	}{
		{"hung", syscall.SIGSTOP, errWatchdog},
		{"killed", syscall.SIGKILL, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dump := filepath.Join(h.out, "watchdog-rpc-noop-client.txt")
			os.Remove(dump)
			done := make(chan error, 1)
			start := time.Now()
			go func() {
				_, err := h.runRep(workloads[0], 1, 0.5, false)
				done <- err
			}()
			c := waitForChild(t)
			pid := c.cmd.Process.Pid
			time.Sleep(50 * time.Millisecond) // into the rep
			if err := syscall.Kill(pid, tc.sig); err != nil {
				t.Fatal(err)
			}
			err := <-done
			if err == nil || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
				t.Fatalf("rep returned %v, want %v", err, tc.wantErr)
			}
			if took := time.Since(start); took > 5*time.Second {
				t.Errorf("failing took %v", took)
			}
			if tc.wantErr == errWatchdog {
				if b, err := os.ReadFile(dump); err != nil || !strings.Contains(string(b), "goroutine ") {
					t.Errorf("no client stack dump: %v", err)
				}
			}
			if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
				t.Errorf("jobserved pid %d still exists: %v", pid, err)
			}
			live.Lock()
			n := len(live.m)
			live.Unlock()
			if n != 0 {
				t.Errorf("%d children still registered", n)
			}
		})
	}
}
