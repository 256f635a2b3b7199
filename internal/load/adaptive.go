package load

import "fmt"

// Granularity classification — the signal-plane version of the paper's
// Table IV task-size classes. The adaptive controller classifies the
// running workload from the smoothed task service time and retunes the
// balancing configuration when the class durably changes; the thresholds
// are the same bands the probe-based auto-tuner (core.GuidelineFor) uses,
// so a converged adaptive controller and a one-shot probe agree.

// Grain is a workload granularity class.
type Grain int

const (
	// GrainUnknown means the plane has not observed enough task samples
	// to classify (ServiceNS == 0).
	GrainUnknown Grain = iota
	// GrainFine: tasks under 500ns (~10¹–10² cycles).
	GrainFine
	// GrainSmall: tasks under 5µs (~10² cycles class).
	GrainSmall
	// GrainMid: tasks under 50µs (~10³ cycles class).
	GrainMid
	// GrainCoarse: tasks under 500µs (10³–10⁴ cycles).
	GrainCoarse
	// GrainXCoarse: tasks of 500µs and above (>10⁴ cycles).
	GrainXCoarse
)

// String returns the class name.
func (g Grain) String() string {
	switch g {
	case GrainUnknown:
		return "unknown"
	case GrainFine:
		return "fine"
	case GrainSmall:
		return "small"
	case GrainMid:
		return "mid"
	case GrainCoarse:
		return "coarse"
	case GrainXCoarse:
		return "xcoarse"
	}
	return fmt.Sprintf("grain(%d)", int(g))
}

// GrainOf classifies a mean task service time in nanoseconds.
func GrainOf(serviceNS float64) Grain {
	switch {
	case serviceNS <= 0:
		return GrainUnknown
	case serviceNS < 500:
		return GrainFine
	case serviceNS < 5_000:
		return GrainSmall
	case serviceNS < 50_000:
		return GrainMid
	case serviceNS < 500_000:
		return GrainCoarse
	}
	return GrainXCoarse
}

// AdaptiveConfig tunes an Adaptive controller.
type AdaptiveConfig struct {
	// Hysteresis is how many consecutive observations must classify into
	// the same new grain before Observe reports a switch — the damping
	// that keeps a steady mixed workload whose smoothed service time
	// hovers near a class boundary from flapping. 0 means 3.
	Hysteresis int
	// MinTaskRate is the minimum observed task rate (tasks/sec) for an
	// observation to count; quieter planes describe silence, not the
	// workload, and are ignored. 0 means 1.
	MinTaskRate float64
	// GuardBand is the dual-threshold (Schmitt trigger) margin: once a
	// class is established, the service time must clear a class boundary
	// by this factor before the observation counts as a different class,
	// so noise oscillating *around* a boundary never reads as a phase
	// change no matter how long it persists. 0 means 1.25 (25%); 1
	// disables the band.
	GuardBand float64
	// SatLoad is the Load() (queued + running work over active capacity)
	// at which ObserveSaturation engages the saturated state; it releases
	// only once Load falls back below SatLoad/GuardBand, the same Schmitt
	// shape the grain classifier uses. 0 means 1.0 (demand matches
	// capacity).
	SatLoad float64
}

// Adaptive is the runtime controller's decision core: feed it periodic
// signal-plane aggregates and it reports when the workload's granularity
// class has durably changed. It is deliberately mechanism-free — the
// caller maps the new Grain to concrete tunables (e.g. a DLBConfig via
// the Table IV guidelines) and installs them — so the same controller
// drives task-level retuning today and can drive dispatch or quota
// parameter retuning unchanged. Not safe for concurrent use.
type Adaptive struct {
	cfg       AdaptiveConfig
	current   Grain
	candidate Grain
	streak    int

	// Saturation tracker state (ObserveSaturation): the established
	// verdict and the streak of consecutive contrary observations.
	saturated bool
	satStreak int
}

// NewAdaptive returns a controller with no established class; the first
// Hysteresis consistent observations establish one (reported as a
// switch).
func NewAdaptive(cfg AdaptiveConfig) *Adaptive {
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = 3
	}
	if cfg.MinTaskRate <= 0 {
		cfg.MinTaskRate = 1
	}
	if cfg.GuardBand <= 0 {
		cfg.GuardBand = 1.25
	}
	if cfg.GuardBand < 1 {
		cfg.GuardBand = 1
	}
	if cfg.SatLoad <= 0 {
		cfg.SatLoad = 1
	}
	return &Adaptive{cfg: cfg, current: GrainUnknown, candidate: GrainUnknown}
}

// Observe feeds one signal-plane aggregate. It returns (grain, true) when
// the workload has durably reclassified — the caller should retune to the
// returned class — and (current, false) otherwise. Unclassifiable or idle
// observations (no service-time samples, task rate under MinTaskRate)
// never change the established class: an idle lull keeps the last
// workload's tuning, which is also the right tuning if the same workload
// resumes.
func (a *Adaptive) Observe(s Signals) (Grain, bool) {
	g := GrainOf(s.ServiceNS)
	if g == GrainUnknown || s.TaskRate < a.cfg.MinTaskRate {
		a.candidate, a.streak = GrainUnknown, 0
		return a.current, false
	}
	// Schmitt trigger: against an established class, reclassify with the
	// service time pulled GuardBand toward that class, so only values
	// that clear the boundary by the margin read as a different grain.
	if a.current != GrainUnknown && g != a.current {
		if g > a.current {
			g = GrainOf(s.ServiceNS / a.cfg.GuardBand)
		} else {
			g = GrainOf(s.ServiceNS * a.cfg.GuardBand)
		}
		if g == GrainUnknown {
			g = GrainFine // tiny positive service time stays classifiable
		}
	}
	if g == a.current {
		a.candidate, a.streak = GrainUnknown, 0
		return a.current, false
	}
	if g != a.candidate {
		a.candidate, a.streak = g, 1
	} else {
		a.streak++
	}
	if a.streak < a.cfg.Hysteresis {
		return a.current, false
	}
	a.current = g
	a.candidate, a.streak = GrainUnknown, 0
	return a.current, true
}

// ObserveSaturation feeds one signal-plane aggregate to the saturation
// tracker, the gate that lets deadline-aware admission shedding engage
// only when the team is genuinely oversubscribed. The verdict flips to
// saturated after Hysteresis consecutive observations with Load() at or
// above SatLoad, and back only after Hysteresis consecutive observations
// below SatLoad/GuardBand — the same streak-plus-Schmitt damping the
// grain classifier uses, so a bursty-but-keeping-up team never starts
// dropping work and a briefly drained backlog never stops a shed regime
// that is still needed. It returns the current verdict and whether this
// observation flipped it.
func (a *Adaptive) ObserveSaturation(s Signals) (saturated, switched bool) {
	load := s.Load()
	var contrary bool
	if a.saturated {
		contrary = load < a.cfg.SatLoad/a.cfg.GuardBand
	} else {
		contrary = load >= a.cfg.SatLoad
	}
	if !contrary {
		a.satStreak = 0
		return a.saturated, false
	}
	a.satStreak++
	if a.satStreak < a.cfg.Hysteresis {
		return a.saturated, false
	}
	a.saturated = !a.saturated
	a.satStreak = 0
	return a.saturated, true
}
