// Package lib is the test-only ratchet's fixture.
package lib

import (
	"fmt"
	"sort"
)

// Point is reached through fmt.Stringer only.
type Point struct{ X, Y int }

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

type byX []Point

func (s byX) Len() int           { return len(s) }
func (s byX) Less(i, j int) bool { return s[i].X < s[j].X }
func (s byX) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Used has a caller in cmd/app.
func Used(ps []Point) string {
	sort.Sort(byX(ps))
	return fmt.Sprint(ps)
}

// Helper is called only by lib_test.go.
func Helper() int { return 2 }
