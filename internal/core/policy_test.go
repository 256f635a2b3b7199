package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/simnuma"
)

func TestPolicyNamedResolution(t *testing.T) {
	for _, name := range PolicyNames() {
		if name == "adaptive" {
			continue
		}
		cfg := Preset("xgomptb", 4)
		cfg.Policy.Name = name
		tm, err := NewTeam(cfg)
		if err != nil {
			t.Fatalf("policy %q rejected: %v", name, err)
		}
		want, _ := PolicyDLB(name, tm.Topology().Zones)
		if got := tm.DLB(); got != want {
			t.Errorf("policy %q installed %+v, want %+v", name, got, want)
		}
	}
	// Unknown names are rejected.
	bad := Preset("xgomptb", 2)
	bad.Policy.Name = "no-such-policy"
	if _, err := NewTeam(bad); err == nil {
		t.Fatal("unknown policy accepted")
	}
	// The adaptive policy needs the XQueue substrate, like any DLB.
	gomp := Preset("gomp", 2)
	gomp.Policy.Name = "adaptive"
	if _, err := NewTeam(gomp); err == nil {
		t.Fatal("adaptive policy on GOMP accepted")
	}
	// Adaptive teams start from a valid balancing configuration.
	ad := Preset("xgomptb", 2)
	ad.Policy.Name = "adaptive"
	tm := MustTeam(ad)
	if tm.DLB().Strategy == DLBNone {
		t.Fatal("adaptive team started without a DLB strategy")
	}
	if tm.PolicyTick() {
		t.Fatal("PolicyTick retuned outside service mode (no controller state)")
	}
}

// Retune and RetuneLive must validate the caller's DLB settings even on
// a team built with a named policy: the check must not re-run policy
// resolution, which would silently swap the named policy's configuration
// in before validation and install the caller's unchecked one.
func TestRetuneValidatesOnNamedPolicyTeam(t *testing.T) {
	cfg := Preset("xgomptb", 2)
	cfg.Policy.Name = "naws"
	tm := MustTeam(cfg)
	bad := DLBConfig{Strategy: DLBWorkSteal, NVictim: 0, NSteal: -3, TInterval: 0, PLocal: 7}
	if err := tm.Retune(bad); err == nil {
		t.Fatal("Retune accepted an invalid config on a named-policy team")
	}
	if err := tm.RetuneLive(bad); err == nil {
		t.Fatal("RetuneLive accepted an invalid config on a named-policy team")
	}
	if got := tm.DLB(); got.NVictim == 0 {
		t.Fatalf("invalid config installed: %+v", got)
	}
}

func TestRetuneLiveWhileServing(t *testing.T) {
	tm := MustTeam(Preset("xgomptb+naws", 2))
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	want := DLBConfig{Strategy: DLBRedirectPush, NVictim: 2, NSteal: 4, TInterval: 50, PLocal: 1}
	if err := tm.RetuneLive(want); err != nil {
		t.Fatal(err)
	}
	if got := tm.DLB(); got != want {
		t.Fatalf("live retune not visible: %+v", got)
	}
	// Invalid settings are rejected and the previous config retained.
	if err := tm.RetuneLive(DLBConfig{Strategy: DLBWorkSteal, NVictim: 0, NSteal: 1, TInterval: 1}); err == nil {
		t.Fatal("invalid live retune accepted")
	}
	if got := tm.DLB(); got != want {
		t.Fatalf("failed retune clobbered settings: %+v", got)
	}
	// Jobs still run correctly under the swapped settings.
	j, err := tm.Submit(func(w *Worker) {
		for i := 0; i < 100; i++ {
			w.Spawn(func(*Worker) {})
		}
		w.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}

// adaptiveTeam builds a serving team under the adaptive policy with the
// background controller disabled, so tests drive PolicyTick manually and
// the hysteresis arithmetic is deterministic.
func adaptiveTeam(t *testing.T, hysteresis int) *Team {
	t.Helper()
	cfg := Preset("xgomptb", 4)
	cfg.Policy = Policy{Name: "adaptive", Interval: -1, Hysteresis: hysteresis}
	tm := MustTeam(cfg)
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	return tm
}

// liveGrain maps the team's live DLB configuration back to the grain
// class the adaptive controller tuned it for. Each class has its own
// configuration, and the team starts on DefaultDLB, which is none of
// them, so it reads as GrainUnknown until the first classification.
func liveGrain(tm *Team) load.Grain {
	d := tm.DLB()
	for g := load.GrainFine; g <= load.GrainXCoarse; g++ {
		if DLBForGrain(g, tm.top.Zones) == d {
			return g
		}
	}
	return load.GrainUnknown
}

// burst submits one job that spawns n tasks of the given body and waits
// for it to quiesce.
func burst(t *testing.T, tm *Team, n int, body TaskFunc) {
	t.Helper()
	j, err := tm.Submit(func(w *Worker) {
		for i := 0; i < n; i++ {
			w.Spawn(body)
		}
		w.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}

// tickUntil drives bursts and controller ticks until pred holds, failing
// the test after maxRounds rounds.
func tickUntil(t *testing.T, tm *Team, maxRounds int, run func(), pred func() bool) {
	t.Helper()
	for i := 0; i < maxRounds; i++ {
		run()
		tm.PolicyTick()
		if pred() {
			return
		}
	}
	t.Fatalf("condition not reached after %d rounds; live DLB %+v, trace %+v",
		maxRounds, tm.DLB(), tm.PolicyTrace())
}

// TestAdaptiveSwitchesOnPhaseChange is the controller's core contract: a
// workload phase change from fine-grained to coarse-grained bursts (and
// back) must trigger at least one retune in each direction, observable in
// the live DLB configuration and the policy-switch trace.
func TestAdaptiveSwitchesOnPhaseChange(t *testing.T) {
	tm := adaptiveTeam(t, 2)
	defer tm.Close()

	fine := func(*Worker) {}
	coarse := func(*Worker) { simnuma.Spin(2_000_000) } // ~ms-class tasks

	// Phase 1: fine-grained bursts. The plane's service-time EWMA settles
	// in a work-stealing class with small steals.
	tickUntil(t, tm, 40,
		func() { burst(t, tm, 4000, fine) },
		func() bool {
			d := tm.DLB()
			return d.Strategy == DLBWorkSteal && d.NSteal <= 16 && len(tm.PolicyTrace()) >= 1
		})
	fineSwitches := len(tm.PolicyTrace())

	// Phase 2: coarse-grained bursts retune to redirect-push.
	tickUntil(t, tm, 40,
		func() { burst(t, tm, 32, coarse) },
		func() bool { return tm.DLB().Strategy == DLBRedirectPush })
	if got := len(tm.PolicyTrace()); got <= fineSwitches {
		t.Fatalf("coarse phase recorded no switch (%d)", got)
	}

	// Phase 3: back to fine-grained retunes back to work stealing.
	tickUntil(t, tm, 60,
		func() { burst(t, tm, 4000, fine) },
		func() bool { return tm.DLB().Strategy == DLBWorkSteal })

	trace := tm.PolicyTrace()
	if len(trace) < 3 {
		t.Fatalf("expected >= 3 switches over 3 phases, trace %+v", trace)
	}
	for i, s := range trace {
		if s.To == "" || s.From == "" || !strings.Contains(s.To, "->") {
			t.Fatalf("malformed switch %d: %+v", i, s)
		}
		if i > 0 && s.At < trace[i-1].At {
			t.Fatalf("trace out of order: %+v", trace)
		}
	}
}

// TestAdaptiveHysteresisNoFlap: on a steady mixed workload the controller
// must not reclassify on noise. The host decides what service times the
// plane measures, so the test judges the controller against its own
// inputs: every aggregate a tick classified is recorded, and a switch away
// from an established class fails only if those inputs did not sit outside
// that class's guard band for Hysteresis consecutive ticks. (The pure
// no-flap arithmetic is pinned by load.TestAdaptiveGuardBand and
// load.TestAdaptiveHysteresisAndSwitching.)
func TestAdaptiveHysteresisNoFlap(t *testing.T) {
	const (
		hysteresis = 3
		guard      = 1.25 // load.AdaptiveConfig's default GuardBand
	)
	tm := adaptiveTeam(t, hysteresis)
	defer tm.Close()

	// Alternate ~5µs and ~30µs tasks by task index (not by worker: every
	// worker must sample the same mix, or rate-weighting skews the
	// aggregate): the smoothed mean sits mid-band in the "mid"
	// granularity class, away from both class boundaries.
	var seq atomic.Int64
	mixed := func(w *Worker) {
		if seq.Add(1)%2 == 0 {
			simnuma.Spin(30_000)
		} else {
			simnuma.Spin(5_000)
		}
	}

	// left reports whether s is a classifiable observation outside cur's
	// guard band — the only kind that may count toward a switch.
	left := func(s load.Signals, cur load.Grain) bool {
		if s.ServiceNS <= 0 || s.TaskRate < 1 {
			return false
		}
		return load.GrainOf(s.ServiceNS/guard) > cur || load.GrainOf(s.ServiceNS*guard) < cur
	}
	var inputs []load.Signals
	tick := func() {
		burst(t, tm, 512, mixed)
		cur := liveGrain(tm)
		tm.PolicyTick()
		// This goroutine is the team's only Signals caller, so the cached
		// aggregate is exactly what the tick classified.
		inputs = append(inputs, *tm.sigAgg.Load())
		if next := liveGrain(tm); next != cur && cur != load.GrainUnknown {
			for _, s := range inputs[max(0, len(inputs)-hysteresis):] {
				if !left(s, cur) {
					t.Fatalf("switched %v -> %v on ServiceNS %.0f (rate %.0f), inside %v's guard band; inputs %+v",
						cur, next, s.ServiceNS, s.TaskRate, cur, inputs)
				}
			}
		}
	}

	for i := 0; i < 40 && liveGrain(tm) == load.GrainUnknown; i++ {
		tick()
	}
	if liveGrain(tm) == load.GrainUnknown {
		t.Skip("mix never classified (host too noisy); nothing to flap")
	}
	for i := 0; i < 30; i++ {
		tick()
	}
}

// TestAdaptiveBackgroundController: with a positive interval the
// controller runs on its own; a sustained coarse workload must retune
// without any manual ticks, and Close must stop the controller cleanly.
func TestAdaptiveBackgroundController(t *testing.T) {
	cfg := Preset("xgomptb", 4)
	cfg.Policy = Policy{Name: "adaptive", Interval: time.Millisecond, Hysteresis: 2}
	tm := MustTeam(cfg)
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(tm.profile.PolicySwitches()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background controller never retuned")
		}
		burst(t, tm, 32, func(*Worker) { simnuma.Spin(2_000_000) })
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	// The controller must not tick (or crash) after Close; a second
	// serve generation starts over with fresh classifier state.
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTeamSignals: the uniform signal surface reflects service-mode load
// and the worker plane's task measurements.
func TestTeamSignals(t *testing.T) {
	tm := MustTeam(Preset("xgomptb+naws", 2))
	if err := tm.Serve(); err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	if got := tm.Signals().Capacity; got != 2 {
		t.Fatalf("Capacity = %v, want 2", got)
	}
	burst(t, tm, 2000, func(*Worker) {})
	// Force the cached aggregate to expire, then re-read.
	time.Sleep(time.Duration(sigCacheTTL) + time.Millisecond)
	sig := tm.Signals()
	if sig.TaskRate <= 0 {
		t.Fatalf("no task rate after a 2000-task burst: %+v", sig)
	}
	if sig.ServiceNS <= 0 {
		t.Fatalf("no service-time samples after a 2000-task burst: %+v", sig)
	}
	svc, rate, _, _ := tm.profile.LoadSignals()
	if svc != sig.ServiceNS || rate != sig.TaskRate {
		t.Fatalf("prof gauges (%v, %v) disagree with Signals %+v", svc, rate, sig)
	}
}
