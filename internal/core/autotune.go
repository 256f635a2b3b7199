package core

import (
	"fmt"
	"time"

	"repro/internal/load"
	"repro/internal/prof"
)

// Automatic DLB selection — the paper's stated future work ("we will
// decompose application characteristics to automate the selection of good
// settings", §X), implemented over its own Table IV guidelines: probe the
// workload once, measure mean task duration and imbalance, classify the
// task size, and pick the strategy and steal size the guidelines
// prescribe.

// Measurement is what the tuner observed during the probe run.
type Measurement struct {
	// Elapsed is the probe region's wall time.
	Elapsed time.Duration
	// Tasks is the number of tasks the probe executed.
	Tasks uint64
	// MeanTask is the estimated mean task duration (total worker time
	// over task count — an upper bound that includes idle time).
	MeanTask time.Duration
	// Imbalance is max/mean of per-worker executed-task counts.
	Imbalance float64
}

// Retune replaces the team's DLB configuration (both the stored Config
// and the live settings). It must be called between parallel regions,
// never while one is running or while the team is serving jobs; a live
// team is retuned with RetuneLive instead.
func (tm *Team) Retune(d DLBConfig) error {
	tm.lifeMu.Lock()
	defer tm.lifeMu.Unlock()
	if tm.running.Load() {
		return fmt.Errorf("core: Retune during a parallel region")
	}
	if tm.Serving() {
		return fmt.Errorf("core: Retune on a serving team (use RetuneLive, or Close the service first)")
	}
	if err := d.validate(tm.cfg.Sched); err != nil {
		return err
	}
	tm.cfg.DLB = d
	tm.dlb.Store(&d)
	return nil
}

// RetuneLive atomically replaces the team's *effective* DLB configuration
// while workers keep running — the retuning lever of the adaptive policy
// controller. Workers read the settings through an atomic pointer once
// per scheduling point, so a swap takes effect within one scheduling
// point per worker with no synchronization barrier; an in-flight steal or
// redirect finishes under the settings it started with. Unlike Retune it
// does not rewrite Config().DLB (see Team.DLB for the live value). Safe
// for any goroutine, in every team mode (it reads only cfg.Sched, which
// is immutable after construction — never the mutable cfg.DLB).
func (tm *Team) RetuneLive(d DLBConfig) error {
	if err := d.validate(tm.cfg.Sched); err != nil {
		return err
	}
	tm.dlb.Store(&d)
	return nil
}

// AutoTune runs workload once as a probe region under the current
// settings, derives DLB settings from the paper's Table IV guidelines,
// and installs them with Retune. It returns the chosen configuration and
// the probe measurement. Teams must be built with SchedXQueue.
func (tm *Team) AutoTune(workload TaskFunc) (DLBConfig, Measurement, error) {
	if tm.cfg.Sched != SchedXQueue {
		return DLBConfig{}, Measurement{}, fmt.Errorf("core: AutoTune requires SchedXQueue, team uses %v", tm.cfg.Sched)
	}
	before := tm.snapshotExecuted()
	start := time.Now()
	tm.Run(workload)
	elapsed := time.Since(start)
	after := tm.snapshotExecuted()

	m := Measurement{Elapsed: elapsed}
	var maxExec uint64
	for i := range after {
		d := after[i] - before[i]
		m.Tasks += d
		if d > maxExec {
			maxExec = d
		}
	}
	if m.Tasks == 0 {
		return DLBConfig{}, m, fmt.Errorf("core: probe region executed no tasks")
	}
	m.MeanTask = time.Duration(uint64(elapsed.Nanoseconds()) * uint64(tm.n) / m.Tasks)
	m.Imbalance = float64(maxExec) * float64(tm.n) / float64(m.Tasks)

	cfg := GuidelineFor(m.MeanTask, tm.top.Zones)
	if err := tm.Retune(cfg); err != nil {
		return DLBConfig{}, m, err
	}
	return cfg, m, nil
}

// GuidelineFor maps a mean task duration to DLB settings following the
// paper's Table IV. The duration is classified into the shared
// granularity classes of the load-signal plane (load.GrainOf), then
// mapped through DLBForGrain — the same class → settings table the
// adaptive runtime controller uses, so a one-shot probe and a converged
// controller agree.
func GuidelineFor(meanTask time.Duration, zones int) DLBConfig {
	return DLBForGrain(load.GrainOf(float64(meanTask.Nanoseconds())), zones)
}

// snapshotExecuted copies the per-worker executed-task counters.
func (tm *Team) snapshotExecuted() []uint64 {
	out := make([]uint64, tm.n)
	for i := 0; i < tm.n; i++ {
		out[i] = tm.profile.Thread(i).Counter(prof.CntTasksExecuted)
	}
	return out
}
