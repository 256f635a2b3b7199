//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. The idle
// wake hammer runs at full length only then: the race-stress CI matrix is
// where its proof obligation lives, and there no neighbouring package
// competes for the CPUs its feeder burns.
const raceEnabled = true
