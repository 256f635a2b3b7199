package xomp_test

import (
	"sync/atomic"
	"testing"

	"repro/xomp"
)

// The facade must expose working presets end to end.
func TestPresetsRunViaFacade(t *testing.T) {
	for _, name := range xomp.PresetNames() {
		t.Run(name, func(t *testing.T) {
			team := xomp.MustTeam(xomp.Preset(name, 2))
			var n atomic.Int64
			team.Run(func(w *xomp.Worker) {
				for i := 0; i < 100; i++ {
					w.Spawn(func(*xomp.Worker) { n.Add(1) })
				}
				w.TaskWait()
				if n.Load() != 100 {
					t.Errorf("TaskWait returned with %d/100 children done", n.Load())
				}
			})
			if n.Load() != 100 {
				t.Errorf("ran %d tasks, want 100", n.Load())
			}
		})
	}
}

func TestFacadeConfigRoundTrip(t *testing.T) {
	cfg := xomp.Preset("xgomptb+naws", 4)
	if cfg.Sched != xomp.SchedXQueue || cfg.Barrier != xomp.BarrierTree {
		t.Fatalf("preset composition wrong: %+v", cfg)
	}
	if cfg.DLB.Strategy != xomp.DLBWorkSteal {
		t.Fatalf("preset DLB wrong: %+v", cfg.DLB)
	}
	cfg.DLB = xomp.DefaultDLB(xomp.DLBRedirectPush)
	if cfg.DLB.NVictim <= 0 || cfg.DLB.NSteal <= 0 || cfg.DLB.TInterval <= 0 {
		t.Fatalf("DefaultDLB incomplete: %+v", cfg.DLB)
	}
	team, err := xomp.NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if team.Workers() != 4 {
		t.Fatalf("Workers() = %d", team.Workers())
	}
}

func TestFacadeRejectsBadConfig(t *testing.T) {
	if _, err := xomp.NewTeam(xomp.Config{Workers: -3}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// Worker identity is stable through the facade types: every task runs on
// one of the team's workers.
func TestWorkerIdentity(t *testing.T) {
	team := xomp.MustTeam(xomp.Preset("xgomptb", 3))
	var ran atomic.Int32
	team.Run(func(w *xomp.Worker) {
		for i := 0; i < 64; i++ {
			w.Spawn(func(w *xomp.Worker) {
				ran.Add(1)
				if id := w.ID(); id < 0 || id >= 3 {
					t.Errorf("task ran on worker %d of a 3-worker team", id)
				}
			})
		}
	})
	if ran.Load() != 64 {
		t.Errorf("ran %d tasks, want 64", ran.Load())
	}
}
