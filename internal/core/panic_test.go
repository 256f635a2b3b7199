package core

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A panic in a task body must propagate to the Run caller with the
// original value, and every worker goroutine must exit.
func TestTaskPanicPropagates(t *testing.T) {
	for _, preset := range []string{"gomp", "lomp", "xgomptb", "xgomptb+naws"} {
		t.Run(preset, func(t *testing.T) {
			tm := MustTeam(Preset(preset, 4))
			before := runtime.NumGoroutine()
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				tm.Run(func(w *Worker) {
					for i := 0; i < 100; i++ {
						i := i
						w.Spawn(func(*Worker) {
							if i == 37 {
								panic("boom-37")
							}
						})
					}
					w.TaskWait()
				})
				done <- nil
			}()
			select {
			case r := <-done:
				if r == nil {
					t.Fatal("Run returned without re-panicking")
				}
				if s, ok := r.(string); !ok || s != "boom-37" {
					t.Fatalf("panic value = %v, want boom-37", r)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("panicking region never terminated")
			}
			// Workers must wind down (allow the scheduler a moment).
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > before+4 {
				t.Errorf("goroutines leaked: %d before, %d after", before, g)
			}
		})
	}
}

// The panic in the region body itself (not a spawned task) propagates too.
func TestRegionBodyPanicPropagates(t *testing.T) {
	tm := MustTeam(Preset("xgomptb", 2))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "root") {
			t.Fatalf("wrong panic value %v", r)
		}
	}()
	tm.Run(func(*Worker) { panic("root went bad") })
}

// After a panic the team is poisoned: reusing it fails loudly instead of
// computing on inconsistent queues.
func TestPanickedTeamPoisoned(t *testing.T) {
	tm := MustTeam(Preset("xgomptb", 2))
	func() {
		defer func() { recover() }()
		tm.Run(func(*Worker) { panic("x") })
	}()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("poisoned team accepted a region")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "unusable") {
			t.Fatalf("wrong poison message: %v", r)
		}
	}()
	tm.Run(func(*Worker) {})
}

// A panic while other workers are deep in taskwait must still unwind them.
func TestPanicUnblocksTaskWait(t *testing.T) {
	tm := MustTeam(Preset("xgomptb", 4))
	var spawned atomic.Int32
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		tm.Run(func(w *Worker) {
			// Long chain of children; one of them panics. The master sits
			// in TaskWait and must be released by the abort flag.
			for i := 0; i < 50; i++ {
				i := i
				w.Spawn(func(w *Worker) {
					spawned.Add(1)
					if i == 25 {
						panic("mid-chain")
					}
					// Children that park briefly keep the join open.
					time.Sleep(time.Millisecond)
				})
			}
			w.TaskWait()
		})
		done <- nil
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("Run returned normally despite panicking child")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("TaskWait never unwound after panic")
	}
}
