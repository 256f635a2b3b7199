package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TaskGroup must wait for descendants, where TaskWait would return after
// direct children only.
func TestTaskGroupWaitsForDescendants(t *testing.T) {
	tm := MustTeam(Preset("xgomptb", 4))
	var leaves atomic.Int64
	runWithTimeout(t, 30*time.Second, "group", func() {
		tm.Run(func(w *Worker) {
			w.TaskGroup(func(w *Worker) {
				for i := 0; i < 8; i++ {
					w.Spawn(func(w *Worker) {
						// Grandchildren, deliberately NOT joined by the child.
						for j := 0; j < 8; j++ {
							w.Spawn(func(w *Worker) {
								time.Sleep(time.Millisecond)
								w.Spawn(func(*Worker) { leaves.Add(1) })
							})
						}
					})
				}
			})
			// All 64 great-grandchildren must be done here.
			if got := leaves.Load(); got != 64 {
				t.Errorf("TaskGroup returned with %d/64 descendants done", got)
			}
		})
	})
	if leaves.Load() != 64 {
		t.Fatalf("%d leaves, want 64", leaves.Load())
	}
}

// Contrast case documenting the semantics: TaskWait alone does NOT join
// grandchildren (they finish by the region barrier instead).
func TestTaskWaitJoinsOnlyChildren(t *testing.T) {
	tm := MustTeam(Preset("xgomptb", 4))
	var grandchildDone atomic.Bool
	var observedAtWait atomic.Bool
	runWithTimeout(t, 30*time.Second, "contrast", func() {
		tm.Run(func(w *Worker) {
			w.Spawn(func(w *Worker) {
				w.Spawn(func(*Worker) {
					time.Sleep(20 * time.Millisecond)
					grandchildDone.Store(true)
				})
				// Child returns immediately; grandchild still pending.
			})
			w.TaskWait()
			observedAtWait.Store(grandchildDone.Load())
		})
	})
	if !grandchildDone.Load() {
		t.Fatal("grandchild never ran (barrier broken)")
	}
	if observedAtWait.Load() {
		t.Skip("grandchild won the race; semantics not distinguishable this run")
	}
}

func TestTaskGroupEmpty(t *testing.T) {
	tm := MustTeam(Preset("xgomptb", 2))
	runWithTimeout(t, 30*time.Second, "empty", func() {
		tm.Run(func(w *Worker) {
			w.TaskGroup(func(*Worker) {})
		})
	})
}

// Nested groups: the inner group joins its own subtree before the outer
// body continues; the outer group joins everything.
func TestTaskGroupNested(t *testing.T) {
	tm := MustTeam(Preset("xgomptb+naws", 4))
	var innerDone, outerTotal atomic.Int64
	runWithTimeout(t, 30*time.Second, "nested", func() {
		tm.Run(func(w *Worker) {
			w.TaskGroup(func(w *Worker) {
				w.Spawn(func(*Worker) { outerTotal.Add(1) })
				w.TaskGroup(func(w *Worker) {
					for i := 0; i < 16; i++ {
						w.Spawn(func(*Worker) {
							time.Sleep(time.Millisecond)
							innerDone.Add(1)
						})
					}
				})
				if got := innerDone.Load(); got != 16 {
					t.Errorf("inner TaskGroup returned with %d/16 done", got)
				}
				w.Spawn(func(*Worker) { outerTotal.Add(1) })
			})
			if got := outerTotal.Load(); got != 2 {
				t.Errorf("outer TaskGroup returned with %d/2 done", got)
			}
		})
	})
}

// Groups work across every preset and compose with chunked loops and
// TaskWait chains.
func TestTaskGroupAcrossPresets(t *testing.T) {
	for _, preset := range []string{"gomp", "lomp", "xgomp", "xgomptb+narp"} {
		t.Run(preset, func(t *testing.T) {
			tm := MustTeam(Preset(preset, 4))
			var n atomic.Int64
			runWithTimeout(t, 30*time.Second, preset, func() {
				tm.Run(func(w *Worker) {
					w.TaskGroup(func(w *Worker) {
						for lo := 0; lo < 100; lo += 8 {
							hi := min(lo+8, 100)
							w.Spawn(func(*Worker) { n.Add(int64(hi - lo)) })
						}
						for i := 0; i < 10; i++ {
							w.Spawn(func(*Worker) { n.Add(1) })
							w.TaskWait()
						}
					})
					if got := n.Load(); got != 110 {
						t.Errorf("group returned with %d/110 done", got)
					}
				})
			})
		})
	}
}

// The group is a frame between the running task and what its body spawns;
// it must stay invisible to the constructs that speak of "the current
// task's children": a TaskWait inside the body still joins children
// spawned before the group opened.
func TestTaskGroupScopeIsTransparent(t *testing.T) {
	tm := MustTeam(Preset("xgomptb", 4))
	runWithTimeout(t, 30*time.Second, "scope", func() {
		tm.Run(func(w *Worker) {
			var early atomic.Bool
			w.Spawn(func(*Worker) {
				time.Sleep(5 * time.Millisecond)
				early.Store(true)
			})
			w.TaskGroup(func(w *Worker) {
				w.TaskGroup(func(w *Worker) {
					w.TaskWait()
					if !early.Load() {
						t.Error("TaskWait inside nested groups returned before a child spawned outside them")
					}
				})
			})
		})
	})
}

// A panicking group body leaves stragglers behind: the job must fail, and
// must not quiesce — nor recycle the frames the stragglers hang off —
// before the last of them has run.
func TestTaskGroupPanicWaitsForStragglers(t *testing.T) {
	tm := serviceTeam(t, "xgomptb", 2)
	defer tm.Close()
	var started, ran atomic.Int64
	release := make(chan struct{})
	j, err := tm.Submit(func(w *Worker) {
		w.TaskGroup(func(w *Worker) {
			// Two, so the static balancer hands at least one to the peer; the
			// other waits in this worker's queue until the panic has unwound.
			for s := 0; s < 2; s++ {
				w.Spawn(func(w *Worker) {
					started.Add(1)
					<-release
					for i := 0; i < 8; i++ {
						w.Spawn(func(*Worker) { ran.Add(1) })
					}
				})
			}
			for started.Load() == 0 {
				runtime.Gosched()
			}
			panic("group body exploded")
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- j.Wait() }()
	select {
	case err := <-done:
		t.Fatalf("job quiesced (%v) while a task of its group was still running", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-done:
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "group body exploded" {
			t.Fatalf("Wait = %v, want PanicError(group body exploded)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job never quiesced after its group's stragglers finished")
	}
	if ran.Load() != 0 {
		t.Fatalf("%d task bodies of a failed job ran", ran.Load())
	}
}
