package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/numa"
	"repro/internal/prof"
)

// counterOf reads worker w's counter c from a profile snapshot (the
// protocol tests below drive one worker by hand, so the team is quiet).
func counterOf(tm *Team, w int, c prof.Counter) uint64 {
	return tm.profile.Snapshot().Counters[w][c]
}

func TestRequestCellPacking(t *testing.T) {
	// 24-bit thief id above a 40-bit round number.
	thief := uint64(0xABCDEF)
	round := uint64(0x12345678AB) & roundMask
	req := thief<<roundBits | round
	if req>>roundBits != thief {
		t.Errorf("thief id corrupted: %x", req>>roundBits)
	}
	if req&roundMask != round {
		t.Errorf("round corrupted: %x", req&roundMask)
	}
	if maxWorkers != 1<<24 {
		t.Errorf("maxWorkers = %d", maxWorkers)
	}
}

func TestPickVictimNeverSelf(t *testing.T) {
	cfg := Preset("xgomptb+naws", 8)
	cfg.Topology = numa.Synthetic(8, 2)
	cfg.DLB.PLocal = 0.5
	tm := MustTeam(cfg)
	w := tm.workers[3]
	for i := 0; i < 10000; i++ {
		v := tm.pickVictim(w, tm.cfg.DLB.PLocal)
		if v == 3 {
			t.Fatal("picked self as victim")
		}
		if v < 0 || v >= 8 {
			t.Fatalf("victim %d out of range", v)
		}
	}
}

func TestPickVictimRespectsPLocal(t *testing.T) {
	cfg := Preset("xgomptb+naws", 8)
	cfg.Topology = numa.Synthetic(8, 2)
	tm := MustTeam(cfg)

	count := func(w *Worker, plocal float64, draws int) (local, remote int) {
		for i := 0; i < draws; i++ {
			v := tm.pickVictim(w, plocal)
			if tm.top.SameZone(w.id, v) {
				local++
			} else {
				remote++
			}
		}
		return
	}
	w := tm.workers[1] // zone 0 with peers 0..3
	if local, remote := count(w, 1.0, 5000); remote != 0 || local == 0 {
		t.Errorf("PLocal=1: local=%d remote=%d", local, remote)
	}
	if local, remote := count(w, 0.0, 5000); local != 0 || remote == 0 {
		t.Errorf("PLocal=0: local=%d remote=%d", local, remote)
	}
	local, remote := count(w, 0.5, 20000)
	frac := float64(local) / float64(local+remote)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("PLocal=0.5: local fraction %v", frac)
	}
}

func TestPickVictimSingleWorkerZone(t *testing.T) {
	// A worker alone in its zone with PLocal=1 must still find victims
	// (falls through to remote).
	cfg := Preset("xgomptb+naws", 3)
	cfg.Topology = numa.Synthetic(3, 3)
	cfg.DLB.PLocal = 1.0
	tm := MustTeam(cfg)
	w := tm.workers[0]
	for i := 0; i < 100; i++ {
		v := tm.pickVictim(w, tm.cfg.DLB.PLocal)
		if v == 0 || v < 0 {
			t.Fatalf("bad victim %d", v)
		}
	}
}

func TestPickVictimSoloTeam(t *testing.T) {
	cfg := Preset("xgomptb+naws", 1)
	tm := MustTeam(cfg)
	if v := tm.pickVictim(tm.workers[0], 1); v != -1 {
		t.Fatalf("solo team picked victim %d", v)
	}
}

// Protocol walk-through: thief publishes a request; victim handles it once,
// increments its round; a replayed request must be ignored.
func TestVictimHandlesRequestOnce(t *testing.T) {
	cfg := Preset("xgomptb+naws", 2)
	cfg.DLB.NSteal = 4
	tm := MustTeam(cfg)
	victim := tm.workers[0]
	victim.beginRegion()

	// Seed the victim's master queue with tasks so the steal can move them.
	for i := 0; i < 3; i++ {
		task := tm.alloc.Get(0)
		task.reset(func(*Worker) {}, &victim.implicit, 0)
		victim.implicit.spawned++
		tm.counter.created(0)
		if !tm.sched.pushTo(0, 0, task) {
			t.Fatal("seed push failed")
		}
	}
	round := victim.round.Load()
	victim.request.Store(uint64(1)<<roundBits | (round & roundMask))

	tm.victimCheck(victim, &tm.cfg.DLB)
	if got := victim.round.Load(); got != round+1 {
		t.Fatalf("round after handling = %d, want %d", got, round+1)
	}
	if got := counterOf(tm, 0, prof.CntReqHandled); got != 1 {
		t.Fatalf("handled = %d, want 1", got)
	}
	if got := counterOf(tm, 0, prof.CntTasksStolen); got != 3 {
		t.Fatalf("stolen = %d, want 3", got)
	}
	// The thief's queue (consumer 1, producer 0) must now hold the tasks.
	moved := 0
	for tm.sched.pop(1) != nil {
		moved++
	}
	if moved != 3 {
		t.Fatalf("thief received %d tasks, want 3", moved)
	}

	// Replay the stale request: round no longer matches.
	tm.victimCheck(victim, &tm.cfg.DLB)
	if got := counterOf(tm, 0, prof.CntReqHandled); got != 1 {
		t.Fatalf("stale request handled: %d", got)
	}
}

// NA-RP: an armed redirect routes the next NSteal spawned tasks to the
// thief, then disarms and advances the round.
func TestRedirectPushArming(t *testing.T) {
	cfg := Preset("xgomptb+narp", 2)
	cfg.DLB.NSteal = 2
	tm := MustTeam(cfg)
	victim := tm.workers[0]
	victim.beginRegion()

	round := victim.round.Load()
	victim.request.Store(uint64(1)<<roundBits | (round & roundMask))
	tm.victimCheck(victim, &tm.cfg.DLB)
	if victim.redirectThief != 1 {
		t.Fatalf("redirect not armed: thief=%d", victim.redirectThief)
	}
	if victim.round.Load() != round {
		t.Fatal("round advanced before redirect completed")
	}

	// Spawn three tasks: two redirect to worker 1, the third goes static.
	for i := 0; i < 3; i++ {
		victim.Spawn(func(*Worker) {})
	}
	if victim.redirectThief != -1 {
		t.Fatal("redirect not disarmed after NSteal pushes")
	}
	if got := victim.round.Load(); got != round+1 {
		t.Fatalf("round = %d, want %d after redirect", got, round+1)
	}
	if got := counterOf(tm, 0, prof.CntTasksStolen); got != 2 {
		t.Fatalf("redirected = %d, want 2", got)
	}
	if got := counterOf(tm, 0, prof.CntStaticPush); got != 1 {
		t.Fatalf("static pushes = %d, want 1", got)
	}
	// Thief's queue from producer 0 holds the two redirected tasks.
	got := 0
	for tm.sched.pop(1) != nil {
		got++
	}
	if got != 2 {
		t.Fatalf("thief received %d tasks, want 2", got)
	}
	// Drain worker 0's own queue and settle the refs bookkeeping.
	for tm.sched.pop(0) != nil {
	}
}

// End-to-end: an imbalanced workload (all tasks created by the master with
// the static balancer defeated by a full-local topology) must see steals
// happen under NA-WS and the work spread across workers.
func TestWorkStealingMovesWork(t *testing.T) {
	cfg := Preset("xgomptb+naws", 4)
	cfg.Topology = numa.Synthetic(4, 1)
	cfg.DLB = DLBConfig{Strategy: DLBWorkSteal, NVictim: 2, NSteal: 8, TInterval: 2, PLocal: 1}
	tm := MustTeam(cfg)
	var perWorker [4]atomic.Int64
	runWithTimeout(t, 60*time.Second, "naws", func() {
		tm.Run(func(w *Worker) {
			for i := 0; i < 2000; i++ {
				w.Spawn(func(w *Worker) {
					perWorker[w.ID()].Add(1)
					busy := 0
					for j := 0; j < 2000; j++ {
						busy += j
					}
					_ = busy
				})
			}
		})
	})
	var total int64
	for i := range perWorker {
		total += perWorker[i].Load()
	}
	if total != 2000 {
		t.Fatalf("ran %d tasks, want 2000", total)
	}
	if sent := tm.profile.Sum(prof.CntReqSent); sent == 0 {
		t.Error("no steal requests sent")
	}
}

// Thief timeout: requests are only sent every TInterval idle polls.
func TestThiefTimeoutGating(t *testing.T) {
	cfg := Preset("xgomptb+naws", 2)
	cfg.DLB.TInterval = 10
	cfg.DLB.NVictim = 1
	tm := MustTeam(cfg)
	w := tm.workers[0]
	w.beginRegion()
	for i := 0; i < 9; i++ {
		tm.thiefStep(w, &tm.cfg.DLB)
	}
	if got := counterOf(tm, 0, prof.CntReqSent); got != 0 {
		t.Fatalf("request sent before TInterval: %d", got)
	}
	tm.thiefStep(w, &tm.cfg.DLB)
	if got := counterOf(tm, 0, prof.CntReqSent); got != 1 {
		t.Fatalf("requests after TInterval = %d, want 1", got)
	}
	// A pending (equal-round) request must not be overwritten.
	for i := 0; i < 10; i++ {
		tm.thiefStep(w, &tm.cfg.DLB)
	}
	if got := counterOf(tm, 0, prof.CntReqSent); got != 1 {
		t.Fatalf("pending request overwritten: sent=%d", got)
	}
}

func TestGuidelineForClasses(t *testing.T) {
	cases := []struct {
		mean     time.Duration
		strategy DLBStrategy
	}{
		{100 * time.Nanosecond, DLBWorkSteal},
		{2 * time.Microsecond, DLBWorkSteal},
		{20 * time.Microsecond, DLBWorkSteal},
		{200 * time.Microsecond, DLBWorkSteal},
		{2 * time.Millisecond, DLBRedirectPush},
	}
	prevSteal := 0
	for _, c := range cases {
		cfg := GuidelineFor(c.mean, 4)
		if cfg.Strategy != c.strategy {
			t.Errorf("GuidelineFor(%v): strategy %v, want %v", c.mean, cfg.Strategy, c.strategy)
		}
		steal := cfg.NVictim * cfg.NSteal
		if steal < prevSteal {
			t.Errorf("steal size must grow with task size: %v gave %d after %d", c.mean, steal, prevSteal)
		}
		prevSteal = steal
		if cfg.TInterval < 1 || cfg.PLocal < 0 || cfg.PLocal > 1 {
			t.Errorf("invalid guideline config %+v", cfg)
		}
	}
	// Single-zone topologies force PLocal=1.
	if cfg := GuidelineFor(200*time.Microsecond, 1); cfg.PLocal != 1 {
		t.Errorf("single zone must pin PLocal=1, got %v", cfg.PLocal)
	}
}
