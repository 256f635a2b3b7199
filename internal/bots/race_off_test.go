//go:build !race

package bots

const raceEnabled = false
