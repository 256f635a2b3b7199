//go:build race

package xomp_test

// raceEnabled reports whether the race detector is compiled in; it
// allocates on its own behalf, so allocation counts are meaningless then.
const raceEnabled = true
