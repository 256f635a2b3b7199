//go:build race

package bots

// raceEnabled reports whether the race detector is compiled in; it
// allocates on its own behalf, so allocation bounds are checked only
// without it.
const raceEnabled = true
