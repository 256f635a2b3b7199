package load

// Granularity classification — the paper's Table IV task-size classes.
// core.GuidelineFor classifies a measured mean task duration into one of
// these and maps the class to the DLB settings the guidelines prescribe.

// Grain is a workload granularity class.
type Grain int

const (
	// GrainUnknown means no task duration was measured (0 ns).
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
