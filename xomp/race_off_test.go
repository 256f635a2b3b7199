//go:build !race

package xomp_test

const raceEnabled = false
