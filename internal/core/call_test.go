package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/numa"
	"repro/internal/prof"
)

// callFib is the BOTS fib shape on call tasks: fib(n-1) is spawned, fib(n-2)
// recurses inline on the same frame, so one frame hands out about n/2 slots.
func callFib(w *Worker, n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	a := w.SpawnCall(callFibBody, uint64(n-1), 0, 0)
	b := callFib(w, n-2)
	w.TaskWait()
	return *a + b
}

func callFibBody(w *Worker, t *Task) { t.Return(callFib(w, int(t.Arg(0)))) }

// mix3 is a call body whose result depends on every argument word.
func mix3(_ *Worker, t *Task) { t.Return(t.Arg(0)*1_000_000 + t.Arg(1)*1_000 + t.Arg(2)) }

func mix3Want(i uint64) uint64 { return i*1_000_000 + (i+1)*1_000 + i + 2 }

// A frame spawning 40 call tasks runs out of slots after taskSlots of them;
// the rest are deferred all the same with heap words as their results, and
// the sum is right under every preset. The queues hold all 40, so none runs
// immediately.
func TestCallTasksPastSlots(t *testing.T) {
	const calls = 40
	var want uint64
	for i := uint64(0); i < calls; i++ {
		want += mix3Want(i)
	}
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			tm := MustTeam(cfg)
			runWithTimeout(t, 30*time.Second, name, func() {
				tm.Run(func(w *Worker) {
					var outs [calls]*uint64
					for i := range outs {
						u := uint64(i)
						outs[i] = w.SpawnCall(mix3, u, u+1, u+2)
					}
					w.TaskWait()
					var got uint64
					for _, p := range outs {
						got += *p
					}
					if got != want {
						t.Errorf("sum of %d call results = %d, want %d", calls, got, want)
					}
				})
			})
			if imm := tm.Profile().Sum(prof.CntImmExec); imm != 0 {
				t.Errorf("%d calls ran undeferred, want every call queued", imm)
			}
		})
	}
}

// A body that loops over SpawnCall and TaskWait spends its slots in nine
// iterations. Every later call is still queued, so the loop keeps its
// parallelism, and the heap words its results take are garbage once read:
// the loop retains no memory per iteration.
func TestCallTaskLoopRetainsNothing(t *testing.T) {
	const iters = 1 << 16
	tm := MustTeam(Preset("xgomptb+naws", 2))
	var ms runtime.MemStats
	live := func() int64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var right int
	var before, after int64
	runWithTimeout(t, 60*time.Second, "loop", func() {
		tm.Run(func(w *Worker) {
			for i := uint64(0); i < iters; i++ {
				if i == 2*taskSlots {
					before = live()
				}
				p := w.SpawnCall(mix3, i, i+1, i+2)
				w.TaskWait()
				if *p == mix3Want(i) {
					right++
				}
			}
			after = live()
		})
	})
	if right != iters {
		t.Errorf("%d of %d calls returned the right value", right, iters)
	}
	if imm := tm.Profile().Sum(prof.CntImmExec); imm != 0 {
		t.Errorf("%d of %d calls ran undeferred, want every call queued", imm, iters)
	}
	// A word per iteration kept until the body returns would be 512 KiB.
	if grew := after - before; grew > 64<<10 {
		t.Errorf("live heap grew by %d bytes over %d calls in one body", grew, iters)
	}
}

// The frame layout ARCHITECTURE.md documents: a Task fills the 160-byte
// size class, and a Job, which embeds its root Task, stays within 320.
func TestFrameSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("frame sizes are pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(Task{}); got != 160 {
		t.Errorf("Task is %d bytes, want 160", got)
	}
	if got := unsafe.Sizeof(Job{}); got > 320 {
		t.Errorf("Job is %d bytes, want at most 320", got)
	}
	// The offsets ARCHITECTURE.md's frame table states.
	var f Task
	for _, c := range []struct {
		field     string
		got, want uintptr
	}{
		{"refs", unsafe.Offsetof(f.refs), 48},
		{"spawned", unsafe.Offsetof(f.spawned), 60},
		{"args", unsafe.Offsetof(f.args), 64},
		{"slots", unsafe.Offsetof(f.slots), 88},
	} {
		if c.got != c.want {
			t.Errorf("Task.%s is at byte %d, want %d", c.field, c.got, c.want)
		}
	}
}

// The fib shape inside a TaskGroup scope frame, as concurrent jobs on a
// serving team and as a region: the scope hands its calls' slots to the
// running body's frame, so a word read after the group returns is valid.
func TestCallTaskFibShape(t *testing.T) {
	const n = 17
	want := uint64(serialFib(n))
	job := func(out *uint64) TaskFunc {
		return func(w *Worker) {
			var tail *uint64
			w.TaskGroup(func(w *Worker) {
				*out = callFib(w, n)
				tail = w.SpawnCall(callFibBody, n, 0, 0)
			})
			*out += *tail
		}
	}
	for _, preset := range []string{"xgomptb", "xgomptb+narp", "xgomptb+naws", "lomp"} {
		t.Run(preset, func(t *testing.T) {
			tm := serviceTeam(t, preset, 4)
			defer tm.Close()
			var outs [6]uint64
			var jobs [len(outs)]*Job
			for i := range jobs {
				j, err := tm.Submit(job(&outs[i]))
				if err != nil {
					t.Fatal(err)
				}
				jobs[i] = j
			}
			for i, j := range jobs {
				if err := j.Wait(); err != nil {
					t.Fatal(err)
				}
				if outs[i] != 2*want {
					t.Errorf("job %d: fib(%d) twice = %d, want %d", i, n, outs[i], 2*want)
				}
			}
		})
	}
	tm := MustTeam(Preset("xgomptb+naws", 4))
	var got uint64
	runWithTimeout(t, 30*time.Second, "region", func() { tm.Run(job(&got)) })
	if got != 2*want {
		t.Errorf("region: fib(%d) twice = %d, want %d", n, got, 2*want)
	}
}

// A panicking call body fails its own job with a PanicError; a neighbouring
// job of call tasks still gets the right answer.
func TestCallTaskPanicIsolation(t *testing.T) {
	tm := serviceTeam(t, "xgomptb+naws", 4)
	defer tm.Close()
	var okVal uint64
	ok, err := tm.Submit(func(w *Worker) { okVal = callFib(w, 18) })
	if err != nil {
		t.Fatal(err)
	}
	bad, err := tm.Submit(func(w *Worker) {
		for i := 0; i < 16; i++ {
			w.SpawnCall(func(_ *Worker, t *Task) {
				if t.Arg(0) == 11 {
					panic("call 11 exploded")
				}
			}, uint64(i), 0, 0)
		}
		w.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if err := bad.Wait(); !errors.As(err, &pe) || pe.Value != "call 11 exploded" {
		t.Fatalf("Wait = %v, want PanicError(call 11 exploded)", err)
	}
	if err := ok.Wait(); err != nil {
		t.Fatal(err)
	}
	if want := uint64(serialFib(18)); okVal != want {
		t.Fatalf("neighbouring job: fib(18) = %d, want %d", okVal, want)
	}
}

// Once a job has failed, its call tasks are cancelled: their bodies never
// run and their result words stay zero, slots and heap words alike.
func TestCallTaskCancelled(t *testing.T) {
	tm := serviceTeam(t, "xgomptb", 2)
	var ran atomic.Int64
	var outs [2 * taskSlots]*uint64
	j, err := tm.Submit(func(w *Worker) {
		w.SpawnCall(func(*Worker, *Task) { panic("first call exploded") }, 0, 0, 0)
		w.TaskWait()
		for i := range outs {
			outs[i] = w.SpawnCall(func(_ *Worker, t *Task) {
				ran.Add(1)
				t.Return(1)
			}, 0, 0, 0)
		}
		w.TaskWait()
		for i, p := range outs {
			if *p != 0 {
				t.Errorf("cancelled call %d left %d in its result word", i, *p)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if err := j.Wait(); !errors.As(err, &pe) {
		t.Fatalf("Wait = %v, want a PanicError", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d call bodies of a failed job ran", n)
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	if n := tm.Profile().Sum(prof.CntTasksCancelled); n < uint64(len(outs)) {
		t.Fatalf("%d tasks cancelled, want at least %d", n, len(outs))
	}
}

// drainOn executes every task queued for worker w on w.
func drainOn(tm *Team, w *Worker) {
	for t := tm.sched.pop(w.id); t != nil; t = tm.sched.pop(w.id) {
		tm.execute(w, t)
	}
}

// NA-WS moves queued call tasks to the thief's queue; their argument blocks
// travel inside the frames, and the results land in the victim's slots.
func TestCallTaskArgsSurviveSteal(t *testing.T) {
	cfg := Preset("xgomptb+naws", 2)
	cfg.Topology = numa.Synthetic(2, 1)
	cfg.DLB.NSteal = taskSlots
	tm := MustTeam(cfg)
	victim, thief := tm.workers[0], tm.workers[1]
	victim.beginRegion()
	thief.beginRegion()
	// The static balancer alternates, so half the calls queue on the victim.
	var outs [taskSlots]*uint64
	for i := range outs {
		u := uint64(i)
		outs[i] = victim.SpawnCall(mix3, u, u+1, u+2)
	}
	tm.doWorkSteal(victim, thief.id, &tm.cfg.DLB)
	if got := counterOf(tm, 0, prof.CntTasksStolen); got == 0 {
		t.Fatal("no call task was stolen")
	}
	drainOn(tm, thief)
	drainOn(tm, victim)
	for i, p := range outs {
		if want := mix3Want(uint64(i)); *p != want {
			t.Errorf("call %d returned %d, want %d", i, *p, want)
		}
	}
	if f := &victim.implicit; f.spawned != taskSlots || f.open() != 0 {
		t.Fatalf("victim frame spawned %d with %d open after its calls ran, want %d and 0", f.spawned, f.open(), taskSlots)
	}
}

// An armed NA-RP redirect pushes new call tasks straight into the thief's
// queue; their arguments and result slots survive the redirect.
func TestCallTaskArgsSurviveRedirect(t *testing.T) {
	cfg := Preset("xgomptb+narp", 2)
	cfg.DLB.NSteal = 2
	tm := MustTeam(cfg)
	victim, thief := tm.workers[0], tm.workers[1]
	victim.beginRegion()
	thief.beginRegion()
	round := victim.round.Load()
	victim.request.Store(uint64(thief.id)<<roundBits | round&roundMask)
	tm.victimCheck(victim, &tm.cfg.DLB)
	var outs [3]*uint64
	for i := range outs {
		u := uint64(i)
		outs[i] = victim.SpawnCall(mix3, u, u+1, u+2)
	}
	if got := counterOf(tm, 0, prof.CntTasksStolen); got != 2 {
		t.Fatalf("redirected %d calls, want 2", got)
	}
	drainOn(tm, thief)
	drainOn(tm, victim)
	for i, p := range outs {
		if want := mix3Want(uint64(i)); *p != want {
			t.Errorf("call %d returned %d, want %d", i, *p, want)
		}
	}
}

// Frames come back from the allocator as fresh ones are: cascade leaves
// refs at zero and clears every reference.
func TestPooledFrameIsClean(t *testing.T) {
	tm := MustTeam(Preset("xgomptb", 2))
	runWithTimeout(t, 30*time.Second, "region", func() {
		tm.Run(func(w *Worker) {
			for i := 0; i < 8; i++ {
				w.Spawn(func(w *Worker) { callFib(w, 6) })
				w.Spawn(func(w *Worker) { taskFib(w, 6) })
			}
			w.TaskGroup(func(w *Worker) { callFib(w, 12) })
		})
	})
	before := tm.AllocStats()
	for _, w := range tm.workers {
		for i := 0; i < 64; i++ {
			f := tm.alloc.Get(w.id)
			if f.refs.Load() != 0 {
				t.Fatalf("pooled frame: refs %d, want 0", f.refs.Load())
			}
			if f.fn != nil || f.body != nil || f.out != nil || f.parent != nil {
				t.Fatalf("pooled frame keeps a reference: %+v", f)
			}
		}
	}
	if after := tm.AllocStats(); after.LocalHits+after.GlobalHits+after.RemoteAcquires == before.LocalHits+before.GlobalHits+before.RemoteAcquires {
		t.Fatal("no frame came from the pool; the test checked only fresh ones")
	}
}

// A job's root task lives in its Job frame, so it must never reach the task
// pool: cascade returns on a root before its recycling step. The Job
// handles are never released, so every root stays live, and a root found
// among the pooled frames can only have been put there by cascade.
func TestPooledFrameNeverAJobRoot(t *testing.T) {
	tm := serviceTeam(t, "xgomptb+naws", 4)
	var jobs [16]*Job
	runWithTimeout(t, 30*time.Second, "jobs", func() {
		for i := range jobs {
			j, err := tm.Submit(func(w *Worker) { taskFib(w, 10) })
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}
		for _, j := range jobs {
			if err := j.Wait(); err != nil {
				t.Error(err)
			}
		}
	})
	tm.Close() // every cascade has returned; the pool is ours to drain
	if t.Failed() {
		return
	}
	roots := make(map[*Task]bool, len(jobs))
	for _, j := range jobs {
		roots[&j.root] = true
	}
	pooled := 0
	for _, w := range tm.workers {
		for {
			fresh := tm.AllocStats().FreshAllocs
			f := tm.alloc.Get(w.id) //repolint:ok pooledescape — draining the pool is the test; the team is closed
			if tm.AllocStats().FreshAllocs != fresh {
				break // w's pool is drained
			}
			pooled++
			if roots[f] {
				t.Fatalf("frame %d from worker %d's pool is a job root", pooled, w.id)
			}
		}
	}
	if pooled == 0 {
		t.Fatal("no frame came from the pool; the test checked only fresh ones")
	}
}

// Jobs made only of call tasks, many at once from several submitters: the
// slot bookkeeping of one job never leaks into another's.
func TestCallTaskJobsConcurrent(t *testing.T) {
	tm := serviceTeam(t, "xgomptb+naws", 4)
	defer tm.Close()
	const submitters, jobs, n = 4, 8, 14
	want := uint64(serialFib(n))
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobs; i++ {
				var got uint64
				j, err := tm.Submit(func(w *Worker) {
					var outs [taskSlots + 3]*uint64
					for k := range outs {
						outs[k] = w.SpawnCall(callFibBody, n, 0, 0)
					}
					w.TaskWait()
					for _, p := range outs {
						got += *p
					}
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := j.Wait(); err != nil {
					t.Error(err)
					return
				}
				if got != (taskSlots+3)*want {
					t.Errorf("got %d, want %d", got, (taskSlots+3)*want)
				}
			}
		}()
	}
	wg.Wait()
}
