package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/load"
)

// receiver is the subscriber's end of either sink kind, so every
// Subscribe test runs against both.
type receiver interface {
	subscribe(j *Job)
	// recv returns the next delivered job, or nil after d.
	recv(d time.Duration) *Job
	// pending counts the jobs delivered and not yet returned by recv.
	pending() int
}

type chanReceiver chan *Job

func (c chanReceiver) subscribe(j *Job) { j.Subscribe(c) }
func (c chanReceiver) pending() int     { return len(c) }
func (c chanReceiver) recv(d time.Duration) *Job {
	select {
	case j := <-c:
		return j
	case <-time.After(d):
		return nil
	}
}

// boxReceiver takes from its outbox only after a token, the way the
// connection writer does; tokens counts the tokens it has consumed.
type boxReceiver struct {
	ob     *Outbox
	got    []*Job
	tokens int
}

func (b *boxReceiver) subscribe(j *Job) { j.SubscribeTo(b.ob) }
func (b *boxReceiver) pending() int {
	b.got = b.ob.Take(b.got)
	return len(b.got)
}
func (b *boxReceiver) recv(d time.Duration) *Job {
	for len(b.got) == 0 {
		select {
		case <-b.ob.Note():
			b.tokens++
			b.got = b.ob.Take(b.got)
		case <-time.After(d):
			return nil
		}
	}
	j := b.got[0]
	b.got = b.got[1:]
	return j
}

// sinkKinds runs f once per sink kind with a fresh receiver; capacity
// sizes the channel kind (an outbox needs none).
func sinkKinds(t *testing.T, capacity int, f func(t *testing.T, rx receiver)) {
	t.Run("chan", func(t *testing.T) { f(t, make(chanReceiver, capacity)) })
	t.Run("outbox", func(t *testing.T) { f(t, &boxReceiver{ob: NewOutbox()}) })
}

// doneFrames returns n finished, unsubscribed job frames of a team that
// is not serving: raw material for driving an outbox by hand.
func doneFrames(n int) []*Job {
	tm := MustTeam(Preset("xgomptb", 2))
	js := make([]*Job, n)
	for i := range js {
		js[i] = tm.acquireJob(int64(i+1), func(*Worker) {}, load.ClassBatch, load.Tenant{})
		js[i].SetTag(uint64(i + 1))
		js[i].finish()
	}
	return js
}

// TestOutboxTokenPerEdge walks the token rule one step at a time: the push
// that finds the box empty posts the one token, pushes onto a non-empty
// box post none, a Take without a token leaves the token standing, and
// Take returns the chain oldest first.
func TestOutboxTokenPerEdge(t *testing.T) {
	ob := NewOutbox()
	js := doneFrames(6)
	tokens := func() int { return len(ob.note) }
	take := func(want ...*Job) {
		t.Helper()
		got := ob.Take(nil)
		if len(got) != len(want) {
			t.Fatalf("Take returned %d jobs, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Take[%d] is job %d, want job %d (completion order)", i, got[i].Tag(), want[i].Tag())
			}
		}
		ReleaseJobs(got)
	}
	if take(); tokens() != 0 {
		t.Fatal("an empty box holds a token")
	}
	js[0].SubscribeTo(ob)
	if tokens() != 1 {
		t.Fatalf("%d tokens after the first push, want 1", tokens())
	}
	js[1].SubscribeTo(ob)
	js[2].SubscribeTo(ob)
	if tokens() != 1 {
		t.Fatalf("%d tokens after pushes onto a non-empty box, want still 1", tokens())
	}
	<-ob.Note()
	take(js[0], js[1], js[2])
	if tokens() != 0 {
		t.Fatal("a Take posted a token")
	}
	js[3].SubscribeTo(ob) // empty → non-empty again
	if tokens() != 1 {
		t.Fatalf("%d tokens after the box refilled, want 1", tokens())
	}
	take(js[3]) // a drain that did not wait for its token
	js[4].SubscribeTo(ob)
	if tokens() != 1 {
		t.Fatalf("%d tokens: an unread token and a new edge make one, not two", tokens())
	}
	<-ob.Note()
	js[5].SubscribeTo(ob)
	take(js[4], js[5])
	if take(); tokens() != 0 {
		t.Fatal("token left behind an empty box")
	}
}

// TestOutboxNoAllocs: delivery and drain allocate nothing — the queue is
// the frames themselves.
func TestOutboxNoAllocs(t *testing.T) {
	ob := NewOutbox()
	js := doneFrames(64)
	buf := make([]*Job, 0, len(js))
	allocs := testing.AllocsPerRun(100, func() {
		for _, j := range js {
			ob.push(j)
		}
		<-ob.Note()
		if buf = ob.Take(buf[:0]); len(buf) != len(js) {
			t.Fatalf("took %d of %d", len(buf), len(js))
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per 64 pushes and a Take, want 0", allocs)
	}
	ReleaseJobs(buf)
}

// TestOutboxHammer: producers × jobs through one outbox, every job
// delivered exactly once, to a receiver that only ever takes after a
// token — so a push whose token went missing strands its job and the
// receive times out. Tokens are per drain, not per job: the receiver may
// not see more of them than there were jobs. Run with -race at
// GOMAXPROCS 1, 2 and 8.
func TestOutboxHammer(t *testing.T) {
	const (
		producers = 8
		each      = 2000
	)
	tm := admitTeam(t, 2, 64, nil)
	defer tm.Close()
	rx := &boxReceiver{ob: NewOutbox()}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j, err := tm.Submit(func(*Worker) {})
				if err != nil {
					t.Error(err)
					return
				}
				j.SetTag(uint64(p*each+i) + 1)
				j.SubscribeTo(rx.ob) // races the job's own finish
			}
		}(p)
	}
	seen := make([]bool, producers*each+1)
	for n := 0; n < producers*each; n++ {
		j := rx.recv(10 * time.Second)
		if j == nil {
			t.Fatalf("delivery %d never arrived: a push lost its token", n)
		}
		if !j.done() {
			t.Fatal("delivered job not done")
		}
		tag := j.Tag()
		if tag == 0 || tag >= uint64(len(seen)) || seen[tag] {
			t.Fatalf("tag %d delivered twice or never submitted", tag)
		}
		seen[tag] = true
		j.Release() // frames recycle under the producers' feet
	}
	wg.Wait()
	if extra := rx.recv(10 * time.Millisecond); extra != nil {
		t.Fatalf("spurious extra delivery, tag %d", extra.Tag())
	}
	if rx.tokens > producers*each {
		t.Fatalf("%d tokens for %d jobs", rx.tokens, producers*each)
	}
	t.Logf("%d jobs in %d drains", producers*each, rx.tokens)
}

// TestOutboxRecycledFrameCarriesNoLink: a frame that went through one
// outbox's chain and back to the pool is clean — its link is cleared on
// recycle, and its next generation lands only in the box it subscribes to.
func TestOutboxRecycledFrameCarriesNoLink(t *testing.T) {
	tm := admitTeam(t, 1, 16, nil)
	defer tm.Close()
	first, second := &boxReceiver{ob: NewOutbox()}, &boxReceiver{ob: NewOutbox()}
	var frames []*Job
	for i := 0; i < 4; i++ {
		j, err := tm.Submit(func(*Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		j.SubscribeTo(first.ob)
		frames = append(frames, j)
	}
	waitFor(t, func() bool { return first.pending() == len(frames) })
	for _, j := range frames {
		j.Release()
		if j.next != nil || j.sink != (sink{}) {
			t.Fatal("a pooled frame still holds its chain link or its sink")
		}
	}
	// Enough submissions that the recycled frames come back around.
	for i := 0; i < 16; i++ {
		j, err := tm.Submit(func(*Worker) {})
		if err != nil {
			t.Fatal(err)
		}
		j.SubscribeTo(second.ob)
		if got := second.recv(5 * time.Second); got != j {
			t.Fatalf("round %d: wrong or no delivery", i)
		}
		if first.pending() != len(frames) || second.pending() != 0 {
			t.Fatalf("round %d: a stale link or sink carried a job into the wrong box", i)
		}
		j.Release()
	}
}

// TestReleaseJobsRuns: a drain's frames go back in runs — to the pool and
// the lane each came from, whatever the mix — and the frames Release would
// have refused (still in flight, already released) are refused here too:
// pool puts equal the frames actually retired.
func TestReleaseJobsRuns(t *testing.T) {
	a, b := MustTeam(Preset("xgomptb", 2)), MustTeam(Preset("xgomptb", 2))
	frame := func(tm *Team, id int64) *Job {
		return tm.acquireJob(id, func(*Worker) {}, load.ClassBatch, load.Tenant{})
	}
	var drain, retired []*Job
	for id := int64(1); id <= 8; id++ { // lanes alternate within a, then b's frames follow
		drain = append(drain, frame(a, id))
	}
	for id := int64(1); id <= 4; id++ {
		drain = append(drain, frame(b, 2*id)) // one lane of b
	}
	for _, j := range drain {
		j.finish()
	}
	retired = append(retired, drain...)
	live := frame(a, 9) // never finished: not ReleaseJobs' to take
	twice := frame(b, 10)
	twice.finish()
	twice.Release()
	drain = append(drain, live, twice)

	ReleaseJobs(drain)
	for _, j := range retired {
		if j.word.Load()&phaseMask != jobPooled {
			t.Fatalf("job %d of a drain not pooled", j.id)
		}
	}
	if live.word.Load()&phaseMask != jobInFlight {
		t.Fatal("ReleaseJobs retired a job still in flight")
	}
	// Every frame is back where it came from, once: drawing as many again
	// from the same lanes allocates nothing.
	freshA, freshB := a.jobPool.Stats().FreshAllocs, b.jobPool.Stats().FreshAllocs
	for id := int64(1); id <= 8; id++ {
		frame(a, id)
	}
	for id := int64(1); id <= 5; id++ {
		frame(b, 2*id)
	}
	if got := a.jobPool.Stats().FreshAllocs - freshA; got != 0 {
		t.Fatalf("team a allocated %d fresh frames after its 8 came back", got)
	}
	if got := b.jobPool.Stats().FreshAllocs - freshB; got != 0 {
		t.Fatalf("team b allocated %d fresh frames after its 4+1 came back", got)
	}
	if frame(b, 12) == twice || b.jobPool.Stats().FreshAllocs-freshB != 1 {
		t.Fatal("a frame released twice went into the pool twice")
	}
}
