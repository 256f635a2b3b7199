package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prof"
)

// joinKind is one way a job body creates children that its frame's join
// count (Task.spawned + Task.refs) must cover.
type joinKind struct {
	name  string
	spawn func(w *Worker, fn TaskFunc)
	// group puts the spawning section inside a TaskGroup, whose scope
	// frame is then the children's parent.
	group bool
}

var joinKinds = []joinKind{
	{"Spawn", (*Worker).Spawn, false},
	{"SpawnCall", func(w *Worker, fn TaskFunc) {
		w.SpawnCall(func(w *Worker, _ *Task) { fn(w) }, 0, 0, 0)
	}, false},
	{"TaskGroup", (*Worker).Spawn, true},
}

// section runs body directly, or as the body of a TaskGroup.
func (k joinKind) section(w *Worker, body TaskFunc) {
	if k.group {
		w.TaskGroup(body)
		return
	}
	body(w)
}

// joinKids is how many children each test body spawns: the static balancer
// of a 2-worker team puts half of them on the peer.
const joinKids = 4

// joinTeam is the 2-worker serving team of one join test. Cleanup closes
// it only if the test passed: a join count that never closes keeps its
// job in flight, and Close would wait for that job forever.
func joinTeam(t *testing.T) *Team {
	tm := serviceTeam(t, "xgomptb", 2)
	t.Cleanup(func() {
		if !t.Failed() {
			tm.Close()
		}
	})
	return tm
}

// holdChildren returns the channel held children block on and the func
// that releases them. A failed test releases them at cleanup, before its
// team is closed, so no worker stays blocked.
func holdChildren(t *testing.T) (release chan struct{}, free func()) {
	release = make(chan struct{})
	var once sync.Once
	free = func() { once.Do(func() { close(release) }) }
	t.Cleanup(free)
	return release, free
}

// heldChild is a child body that announces itself and then blocks until
// release is closed, so the test decides when the children finish.
func heldChild(started, finished *atomic.Int64, release <-chan struct{}) TaskFunc {
	return func(*Worker) {
		started.Add(1)
		<-release
		finished.Add(1)
	}
}

// stillOpen fails the test if j quiesces within a short grace period: its
// held children have not finished, so its join count must stay open.
func stillOpen(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
		t.Fatalf("job quiesced (%v) while children it spawned were still held", j.Err())
	case <-time.After(20 * time.Millisecond):
	}
}

// quiesces waits for j under a watchdog and returns its error. A join count
// that never reaches zero trips the watchdog.
func quiesces(t *testing.T, j *Job) error {
	t.Helper()
	select {
	case <-j.Done():
		return j.Wait()
	case <-time.After(10 * time.Second):
		t.Fatal("job never quiesced after its children finished")
		return nil
	}
}

// A body that returns without TaskWait while its children still run on the
// other worker: the job quiesces only after the last child, and a
// TaskGroup returns only after all of them.
func TestJoinBodyReturnsBeforeChildren(t *testing.T) {
	for _, k := range joinKinds {
		t.Run(k.name, func(t *testing.T) {
			tm := joinTeam(t)
			var started, finished atomic.Int64
			release, free := holdChildren(t)
			joined := int64(-1)
			j, err := tm.Submit(func(w *Worker) {
				k.section(w, func(w *Worker) {
					for range joinKids {
						k.spawn(w, heldChild(&started, &finished, release))
					}
					for started.Load() == 0 { // one child runs on the peer
						runtime.Gosched()
					}
				})
				joined = finished.Load()
			})
			if err != nil {
				t.Fatal(err)
			}
			stillOpen(t, j)
			free()
			if err := quiesces(t, j); err != nil {
				t.Fatal(err)
			}
			if got := finished.Load(); got != joinKids {
				t.Fatalf("job quiesced with %d of %d children finished", got, joinKids)
			}
			if k.group && joined != joinKids {
				t.Fatalf("TaskGroup returned with %d of %d children finished", joined, joinKids)
			}
		})
	}
}

// A body that panics with children outstanding fails its job, and the job
// still quiesces only after every child that had started has finished.
// The team keeps serving.
func TestJoinPanicWithChildrenOutstanding(t *testing.T) {
	for _, k := range joinKinds {
		t.Run(k.name, func(t *testing.T) {
			tm := joinTeam(t)
			var started, finished atomic.Int64
			release, free := holdChildren(t)
			j, err := tm.Submit(func(w *Worker) {
				k.section(w, func(w *Worker) {
					for range joinKids {
						k.spawn(w, heldChild(&started, &finished, release))
					}
					for started.Load() == 0 {
						runtime.Gosched()
					}
					panic("body exploded")
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			stillOpen(t, j)
			free()
			var pe *PanicError
			if err := quiesces(t, j); !errors.As(err, &pe) || pe.Value != "body exploded" {
				t.Fatalf("Wait = %v, want PanicError(body exploded)", err)
			}
			if s, f := started.Load(), finished.Load(); s != f {
				t.Fatalf("job quiesced with %d of its %d started children finished", f, s)
			}
			var got uint64
			next, err := tm.Submit(func(w *Worker) { got = callFib(w, 15) })
			if err != nil {
				t.Fatal(err)
			}
			if err := quiesces(t, next); err != nil {
				t.Fatal(err)
			}
			if want := uint64(serialFib(15)); got != want {
				t.Fatalf("next job: fib(15) = %d, want %d", got, want)
			}
		})
	}
}

// A job whose first child panics is cancelled while the rest of its
// children are still queued behind it: their bodies are skipped, their
// completions still close the join, and the job quiesces exactly once.
func TestJoinCancelledWithChildrenQueued(t *testing.T) {
	const kids = 16
	for _, k := range joinKinds {
		t.Run(k.name, func(t *testing.T) {
			tm := joinTeam(t)
			var ran atomic.Int64
			j, err := tm.Submit(func(w *Worker) {
				k.section(w, func(w *Worker) {
					// The bomb heads its queue row, so at least the children
					// placed behind it in that row run after the failure.
					k.spawn(w, func(*Worker) { panic("first child exploded") })
					for range kids {
						k.spawn(w, func(*Worker) { ran.Add(1) })
					}
				})
				if !k.group {
					w.TaskWait()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			var pe *PanicError
			if err := quiesces(t, j); !errors.As(err, &pe) || pe.Value != "first child exploded" {
				t.Fatalf("Wait = %v, want PanicError(first child exploded)", err)
			}
			if err := tm.Close(); err != nil {
				t.Fatal(err)
			}
			cancelled := tm.Profile().Sum(prof.CntTasksCancelled)
			if cancelled == 0 {
				t.Fatal("no queued child was cancelled")
			}
			if got := uint64(ran.Load()) + cancelled; got != kids {
				t.Fatalf("%d children ran and %d were cancelled, want %d in all", ran.Load(), cancelled, kids)
			}
		})
	}
}
