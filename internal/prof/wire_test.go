package prof

import (
	"sync"
	"testing"
)

// TestWireCounters: the wire counters must sum exactly under concurrent
// per-connection traffic — the invariant the e2e accounting test and
// the wire-smoke CI gate read through Snapshot.
func TestWireCounters(t *testing.T) {
	var w Wire
	const conns, frames = 8, 50
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.ConnOpened()
			for f := 0; f < frames; f++ {
				w.FrameIn(4, 100)
				w.ResultOut(4, 1)
				w.FlushOut(60)
			}
			w.ConnClosed()
		}()
	}
	wg.Wait()
	s := w.Snapshot()
	want := WireSnapshot{
		ConnsOpened: conns, ConnsClosed: conns,
		FramesIn: conns * frames, FramesOut: conns * frames,
		BytesIn: conns * frames * 100, BytesOut: conns * frames * 60,
		JobsIn: conns * frames * 4, ResultsOut: conns * frames * 4,
		Refused: conns * frames,
	}
	if s != want {
		t.Fatalf("snapshot %+v, want %+v", s, want)
	}
}

// TestWireStages: stage samples from concurrent connections all land,
// each in its own histogram, and Stages hands back a detached copy.
func TestWireStages(t *testing.T) {
	var w Wire
	const conns, frames = 4, 100
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				w.RecordStage(StageAdmit, 1000)
				w.RecordStage(StageFlush, 3000)
			}
		}()
	}
	wg.Wait()
	st := w.Stages()
	w.RecordStage(StageAdmit, 1000) // must not show in the copy
	for s, want := range map[WireStage]uint64{StageAdmit: conns * frames, StageFirstDone: 0, StageFlush: conns * frames} {
		if got := st[s].Count(); got != want {
			t.Errorf("%s: %d samples, want %d", s, got, want)
		}
	}
	if p50 := st[StageFlush].Percentile(50); p50 < 2900 || p50 > 3000 {
		t.Errorf("flush p50 = %d, want ~3000", p50)
	}
	if StageFirstDone.String() != "first-done" || WireStage(9).String() == "" {
		t.Errorf("stage names: %q, %q", StageFirstDone, WireStage(9))
	}
}
