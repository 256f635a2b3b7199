package core

import (
	"fmt"
	"time"

	"repro/internal/load"
	"repro/internal/prof"
)

// Pluggable balancing policies — the LB4OMP-style selection layer on top
// of the paper's fixed DLB strategies. A Policy either names one of a
// library of fixed configurations (the Table IV guideline classes plus
// the sweep defaults) or turns on the adaptive runtime controller, which
// classifies the running workload's granularity from the team's
// load-signal plane (internal/load) and retunes the DLB configuration
// live whenever the class durably changes.

// Policy selects the team's balancing policy.
type Policy struct {
	// Name selects the policy:
	//
	//	"" or "static"  keep Config.DLB exactly as given
	//	"adaptive"      runtime controller: classify granularity from the
	//	                signal plane, retune DLB live (requires SchedXQueue)
	//	"naws", "narp"  DefaultDLB sweep midpoints
	//	"ws-fine", "ws-small", "ws-mid", "ws-coarse", "rp-coarse"
	//	                the Table IV guideline class configurations
	//
	// Every name except "" and "static" overrides Config.DLB.
	Name string
	// Interval is the adaptive controller's tick period. 0 → 10ms;
	// negative disables the background loop (PolicyTick can still be
	// called manually, which tests use for determinism).
	Interval time.Duration
	// Hysteresis is how many consecutive controller ticks must classify
	// the workload into the same new granularity class before the
	// controller retunes. 0 → 3.
	Hysteresis int
}

// Adaptive reports whether the policy runs the adaptive controller.
func (p Policy) Adaptive() bool { return p.Name == "adaptive" }

// PolicyNames lists the selectable policy names: static, the fixed
// library (coarsest last), and adaptive.
func PolicyNames() []string {
	return []string{"static", "ws-fine", "ws-small", "ws-mid", "ws-coarse", "rp-coarse", "naws", "narp", "adaptive"}
}

// ValidPolicyName reports whether name is a selectable policy name — the
// one membership check every name-accepting surface shares.
func ValidPolicyName(name string) bool {
	for _, p := range PolicyNames() {
		if p == name {
			return true
		}
	}
	return false
}

// PolicyDLB maps a fixed policy name to its DLB configuration for a
// topology with the given zone count. The second result is false for
// unknown names and for "adaptive" (which has no fixed configuration).
func PolicyDLB(name string, zones int) (DLBConfig, bool) {
	switch name {
	case "", "static":
		return DLBConfig{}, true
	case "naws":
		return DefaultDLB(DLBWorkSteal), true
	case "narp":
		return DefaultDLB(DLBRedirectPush), true
	case "ws-fine":
		return DLBForGrain(load.GrainFine, zones), true
	case "ws-small":
		return DLBForGrain(load.GrainSmall, zones), true
	case "ws-mid":
		return DLBForGrain(load.GrainMid, zones), true
	case "ws-coarse":
		return DLBForGrain(load.GrainCoarse, zones), true
	case "rp-coarse":
		return DLBForGrain(load.GrainXCoarse, zones), true
	}
	return DLBConfig{}, false
}

// DLBForGrain maps a workload granularity class to the DLB settings the
// paper's Table IV recommends: fine-grained tasks → NA-WS with small
// steal sizes and fully local victims; coarse tasks → larger steals, with
// the coarsest class on NA-RP. Plocal only matters on multi-zone
// topologies. GrainUnknown maps like GrainFine (the conservative end).
func DLBForGrain(g load.Grain, zones int) DLBConfig {
	var cfg DLBConfig
	switch g {
	case load.GrainSmall:
		cfg = DLBConfig{Strategy: DLBWorkSteal, NVictim: 2, NSteal: 8, TInterval: 100, PLocal: 1}
	case load.GrainMid:
		cfg = DLBConfig{Strategy: DLBWorkSteal, NVictim: 4, NSteal: 16, TInterval: 100, PLocal: 1}
	case load.GrainCoarse:
		cfg = DLBConfig{Strategy: DLBWorkSteal, NVictim: 8, NSteal: 32, TInterval: 100, PLocal: 0.5}
	case load.GrainXCoarse:
		cfg = DLBConfig{Strategy: DLBRedirectPush, NVictim: 8, NSteal: 32, TInterval: 100, PLocal: 1}
	default: // GrainUnknown, GrainFine
		cfg = DLBConfig{Strategy: DLBWorkSteal, NVictim: 1, NSteal: 1, TInterval: 100, PLocal: 1}
	}
	if zones <= 1 {
		cfg.PLocal = 1
	}
	return cfg
}

// resolve normalizes the policy during Config validation: named fixed
// policies override c.DLB, "adaptive" gets its controller defaults, and
// unknown names are rejected.
func (p *Policy) resolve(c *Config) error {
	if p.Interval == 0 {
		p.Interval = 10 * time.Millisecond
	}
	if p.Hysteresis == 0 {
		p.Hysteresis = 3
	}
	if p.Hysteresis < 0 {
		return fmt.Errorf("core: Policy.Hysteresis must be >= 0, got %d", p.Hysteresis)
	}
	switch p.Name {
	case "", "static":
		return nil
	case "adaptive":
		if c.Sched != SchedXQueue {
			return fmt.Errorf("core: adaptive policy requires SchedXQueue, got %v", c.Sched)
		}
		// Start from a valid mid-range configuration so the team balances
		// sensibly before the first classification. A caller-provided DLB
		// strategy is kept as that starting point.
		if c.DLB.Strategy == DLBNone {
			c.DLB = DefaultDLB(DLBWorkSteal)
		}
		return nil
	}
	d, ok := PolicyDLB(p.Name, c.Topology.Zones)
	if !ok {
		return fmt.Errorf("core: unknown policy %q (have %v)", p.Name, PolicyNames())
	}
	c.DLB = d
	return nil
}

// The admission edge's saturation verdict (Team.satState): auto means no
// adaptive controller has established one, so SubmitCtx falls back to an
// instantaneous Load() check; on/off are the controller's hysteresis-
// damped verdict (load.Adaptive.ObserveSaturation).
const (
	satAuto int32 = iota
	satOn
	satOff
)

// PolicyTick runs one adaptive-controller observation synchronously:
// aggregate the team's signal plane, track saturation for the admission
// edge (deadline-aware shedding engages only while the hysteresis-damped
// tracker says the team is oversubscribed), classify the workload's
// granularity, and — once the classification has durably changed
// (hysteresis) — retune the live DLB configuration to the guideline for
// the new class, recording a policy switch on the team's profile. It
// reports whether a retune happened (saturation flips are recorded on the
// trace but not reported). The background controller calls this every
// Policy.Interval while the team serves; tests and external controllers
// may invoke it directly (also with Policy.Interval < 0, which suppresses
// the background loop). It returns false when the team was not built with
// the adaptive policy.
func (tm *Team) PolicyTick() bool {
	tm.polMu.Lock()
	defer tm.polMu.Unlock()
	if tm.adapt == nil {
		return false
	}
	sig := tm.Signals()
	sat, flipped := tm.adapt.ObserveSaturation(sig)
	state := satOff
	if sat {
		state = satOn
	}
	// Publish the tracker's verdict every tick (not only on flips): from
	// the controller's first observation onward the admission edge uses
	// the hysteresis-damped verdict, never the raw per-call Load check it
	// falls back to without a controller — so a queue blip between flips
	// cannot shed work on a team the tracker still considers healthy.
	tm.satState.Store(state)
	if flipped {
		verdict := "admission: shed disengaged (load normal)"
		if sat {
			verdict = "admission: shed engaged (saturated)"
		}
		tm.profile.RecordPolicySwitch(prof.PolicySwitch{
			At:   tm.profile.Now(),
			From: fmt.Sprintf("load %.2f", sig.Load()),
			To:   verdict,
		})
	}
	grain, switched := tm.adapt.Observe(sig)
	if !switched {
		return false
	}
	old := *tm.dlb.Load()
	cfg := DLBForGrain(grain, tm.top.Zones)
	if cfg == old {
		return false
	}
	if err := tm.RetuneLive(cfg); err != nil {
		return false
	}
	tm.profile.RecordPolicySwitch(prof.PolicySwitch{
		At:   tm.profile.Now(),
		From: describeDLB(old),
		To:   grain.String() + " -> " + describeDLB(cfg),
	})
	return true
}

// PolicyTrace returns the team's recorded policy switches (adaptive
// controller retunes) in order.
func (tm *Team) PolicyTrace() []prof.PolicySwitch {
	return tm.profile.PolicySwitches()
}

// describeDLB renders a DLB configuration compactly for the policy trace.
func describeDLB(d DLBConfig) string {
	if d.Strategy == DLBNone {
		return "static"
	}
	return fmt.Sprintf("%v nv=%d ns=%d ti=%d pl=%g", d.Strategy, d.NVictim, d.NSteal, d.TInterval, d.PLocal)
}

// runPolicyController is the background adaptive-controller loop of one
// Serve generation: one PolicyTick per Policy.Interval until Close closes
// stop (passed by value so a racing teardown cannot swap it under the
// select).
func (tm *Team) runPolicyController(svc *service, stop <-chan struct{}) {
	defer svc.wg.Done()
	tick := time.NewTicker(tm.cfg.Policy.Interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			tm.PolicyTick()
		}
	}
}
