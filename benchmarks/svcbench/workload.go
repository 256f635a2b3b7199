package main

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/load"
	"repro/internal/rng"
	"repro/internal/wire"
	"repro/xomp"
)

// serverSpec is one workload's jobserved configuration. It renders two
// ways: as child-process flags (args) and as the same pool built
// in-process for the embedded counter pass (pool).
type serverSpec struct {
	preset  string
	workers int
	shards  int
	admit   string // block | shed
	backlog int    // 0 = jobserved's default (4x workers)
}

func (s serverSpec) args() []string {
	a := []string{
		"-addr", "127.0.0.1:0",
		"-runtime", s.preset,
		"-workers", strconv.Itoa(s.workers),
		"-shards", strconv.Itoa(s.shards),
		"-admit", s.admit,
		"-scale", "test",
	}
	if s.backlog > 0 {
		a = append(a, "-backlog", strconv.Itoa(s.backlog))
	}
	return a
}

func (s serverSpec) pool() (*xomp.ShardedPool, error) {
	team := xomp.Preset(s.preset, s.workers/s.shards)
	team.Backlog = s.backlog
	if s.admit == "shed" {
		team.Admit = xomp.DeadlineShed{}
	}
	return xomp.NewShardedPool(xomp.ShardConfig{Shards: s.shards, Team: team})
}

// workload is one traffic mix and the server it runs against.
type workload struct {
	name, why string
	server    serverSpec
	conns     int
	batch     int      // jobs per submit frame (closed loop)
	apps      []string // named BOTS apps, round-robin per job; nil = no-op jobs
	warmJobs  int      // closed loop: warm-up by count, over all connections
	rate      float64  // open loop: Poisson arrivals per second over all connections; 0 = closed loop
	warmS     float64  // open loop: warm-up seconds of schedule
	hasWork   bool     // every job spins or runs an app, so RunNS must be > 0
}

func (w *workload) open() bool { return w.rate > 0 }

// The four workloads. Each stresses different layers; the why strings are
// the ones BENCHMARK.json carries.
var workloads = []*workload{
	{
		name:     "rpc-noop",
		why:      "closed loop, 1 conn, 1 no-op job a frame: nothing overlaps, so every wake-up (socket, serve-loop spin or sleep, Subscribe delivery, writer flush) is paid per job; codec and batching work shows nothing",
		server:   serverSpec{preset: "xgomptb", workers: 2, shards: 1, admit: "block"},
		conns:    1,
		batch:    1,
		warmJobs: 2000,
	},
	{
		name:     "pipe-noop-b64",
		why:      "closed loop, 2 conns, 64 no-op jobs a frame: the serve loop never idles, so throughput is per-job CPU in wire, SubmitBatchCtx, intake ring, frame pool, Subscribe, coalescing; wake-ups show nothing",
		server:   serverSpec{preset: "xgomptb", workers: 2, shards: 1, admit: "block"},
		conns:    2,
		batch:    64,
		warmJobs: 65536,
	},
	{
		name:     "bots-mix",
		why:      "closed loop, 2 conns, 4 BOTS jobs (fib, sort, nqueens at scale test) a frame on xgomptb+naws: milliseconds of task-runtime CPU per job, the paper's layer, and an almost idle edge",
		server:   serverSpec{preset: "xgomptb+naws", workers: 2, shards: 1, admit: "block"},
		conns:    2,
		batch:    4,
		apps:     []string{"fib", "sort", "nqueens"},
		warmJobs: 200,
		hasWork:  true,
	},
	{
		name:    "open-mix",
		why:     "open loop, 2 conns, seeded Poisson arrivals at 2000 jobs/s, 3 classes, 4 tenants, 2 shards, shed admission: queueing, idle-poll latency, class rings, P2C dispatch, migration; nothing is refused",
		server:  serverSpec{preset: "xgomptb", workers: 2, shards: 2, admit: "shed", backlog: 1024},
		conns:   2,
		rate:    2000,
		warmS:   1,
		hasWork: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fillFrame writes the closed-loop frame whose first job is the conn's
// job number first: no-op records, or the apps in rotation.
func (w *workload) fillFrame(frame []wire.SubmitRecord, first int) {
	for i := range frame {
		frame[i] = wire.SubmitRecord{}
		if w.apps != nil {
			frame[i].App = []byte(w.apps[(first+i)%len(w.apps)])
		}
	}
}

// Open-loop job mix: fixed simnuma spin units (never calibrated ones, which
// drift with host load), one class each. The sizes are half the issue's
// 10 000 / 50 000 / 200 000: those were sized for a server on two CPUs, and
// the placed server of a 2-vCPU host has one (about 100us of work per job
// at 2 000 jobs/s), which must not saturate when the host runs slow.
var openMix = []struct {
	share    float64
	class    load.Class
	units    int
	deadline int64 // ns, 0 = none
}{
	{0.30, load.ClassInteractive, 5_000, 2e9},
	{0.50, load.ClassBatch, 25_000, 0},
	{0.20, load.ClassBackground, 100_000, 0},
}

const openTenants = 4

// maxOpenBatch bounds how many already-due arrivals one frame coalesces.
const maxOpenBatch = 64

// connPlan is one connection's share of an open-loop schedule: recs[i] is
// due dueNS[i] after the schedule starts.
type connPlan struct {
	dueNS []int64
	recs  []wire.SubmitRecord
}

// openSchedule generates seconds of Poisson arrivals at rate jobs/s from
// seed and deals them onto conns connections. It depends on nothing else,
// so one seed always gives the same bytes on the wire.
func openSchedule(seed uint64, rate, seconds float64, conns int) []connPlan {
	r := rng.New(seed)
	plans := make([]connPlan, conns)
	end := int64(seconds * 1e9)
	var t float64
	for {
		t += -math.Log(1-r.Float64()) / rate * 1e9
		if int64(t) >= end {
			return plans
		}
		u, kind := r.Float64(), 0
		for kind < len(openMix)-1 && u >= openMix[kind].share {
			u -= openMix[kind].share
			kind++
		}
		m := openMix[kind]
		p := &plans[r.Intn(conns)]
		p.dueNS = append(p.dueNS, int64(t))
		p.recs = append(p.recs, wire.SubmitRecord{
			Class:      int(m.class),
			DeadlineNS: m.deadline,
			TenantID:   1 + r.Intn(openTenants),
			Size:       m.units,
		})
	}
}
