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

// TestWireEdge: the edge poller's counters sum, and the snapshot reads
// the heat signal the readers feed.
func TestWireEdge(t *testing.T) {
	var w Wire
	w.EdgeSpell(7, 2, true)
	w.EdgeSpell(5, 0, false)
	w.EdgeKick(3)
	w.EdgePark()
	w.Heat.Arrive(4_000_000)
	if s := w.Snapshot(); s.EdgePolls != 12 || s.EdgePollHits != 1 || s.EdgeSweeps != 2 || s.EdgeKicks != 3 || s.EdgeParks != 1 || s.EdgeHeatNS != 1_000_000 {
		t.Fatalf("edge counters: %+v", s)
	}
}

// TestHeat: the heat signal is an α = ¼ EWMA of the gaps between Arrive's
// clock readings that tolerates readings arriving out of order.
func TestHeat(t *testing.T) {
	var h Heat
	// The first gap is measured from the clock's base: a server that has
	// been up a while starts cold.
	if got := h.Arrive(4_000_000); got != 1_000_000 {
		t.Fatalf("first gap: heat %d, want 1000000", got)
	}
	now, heat := int64(4_000_000), int64(1_000_000)
	for i := 0; i < 60; i++ { // arrivals 100 µs apart pull it down to 100 µs
		now += 100_000
		heat += (100_000 - heat) / 4
		if got := h.Arrive(now); got != heat {
			t.Fatalf("arrival %d: heat %d, want %d", i, got, heat)
		}
	}
	if heat < 100_000 || heat > 100_010 {
		t.Fatalf("heat settled at %d, want ~100000", heat)
	}
	if got := h.Arrive(now - 50_000); got != heat-heat/4 {
		t.Fatalf("out-of-order reading: heat %d, want %d (a zero gap)", got, heat-heat/4)
	}
	if got := h.NS(); got != heat-heat/4 {
		t.Fatalf("NS reads %d", got)
	}
}
