// End-to-end integration test of the public task API: every construct
// in one region on the headline runtime.
package repro_test

import (
	"testing"
	"time"

	"repro/xomp"
)

// Every example-facing construct in one region, on the headline runtime,
// bounded by a watchdog.
func TestKitchenSinkRegion(t *testing.T) {
	team := xomp.MustTeam(xomp.Preset("xgomptb+narp", 4))
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ordered int
		total := 0
		team.Run(func(w *xomp.Worker) {
			w.TaskGroup(func(w *xomp.Worker) {
				for lo := 0; lo < 300; lo += 16 {
					hi := min(lo+16, 300)
					w.Spawn(func(w *xomp.Worker) {
						for i := lo; i < hi; i++ {
							w.Spawn(func(*xomp.Worker) {})
						}
					})
				}
				for i := 0; i < 20; i++ {
					w.Spawn(func(*xomp.Worker) { ordered++ })
					w.TaskWait()
				}
			})
			total = ordered
		})
		if total != 20 {
			panic("taskgroup returned before its TaskWait chain finished")
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("kitchen-sink region hung")
	}
}
