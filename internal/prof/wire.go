package prof

import (
	"sync"

	"repro/internal/stats"
)

// Wire counters for the network serving edge: one Wire per listener,
// shared by every connection's reader/writer goroutine pair. All fields
// are the package's counter cells — the wire hot path (one frame per
// syscall's worth of jobs) bumps them per frame, not per job, so plain
// atomic adds are cheap enough and keep the struct snapshot-safe while
// connections are live (unlike the per-thread counters, which require
// quiescence).
//
// The stage clock is the server's own view of where a frame's time goes,
// the part of a round trip a client-side trace cannot see into: three
// histograms fed one sample per frame or per flush (never per job), so a
// live jobserved can say whether the edge's latency sits in admission, in
// the pool, or in the writer.
type Wire struct {
	connsOpened counter
	connsClosed counter
	framesIn    counter
	framesOut   counter
	bytesIn     counter
	bytesOut    counter
	jobsIn      counter
	resultsOut  counter
	refused     counter

	// The edge poller's counters (see jobserve's "the edge polls itself").
	// Readers publish them per poll spell, never per poll.
	edgePolls    counter
	edgePollHits counter
	edgeSweeps   counter
	edgeKicks    counter
	edgeParks    counter
	// Heat is the one signal that gates the poller: every reader feeds it
	// the arrival of each decoded submit frame, on the server's stage
	// clock.
	Heat Heat

	// stageMu guards stages: stats.Histogram is single-writer and every
	// connection's reader and writer record into the same three.
	stageMu sync.Mutex
	stages  [NumWireStages]stats.Histogram
}

// WireStage names one segment of the server-side stage clock.
type WireStage int

const (
	// StageAdmit runs from the reader's decoder returning a submit frame
	// to the pool's admission verdict on it (body construction,
	// deadline rebasing, window slots, SubmitBatchCtx).
	StageAdmit WireStage = iota
	// StageFirstDone runs from that verdict to the connection's writer
	// waking with a completed job: queueing, adoption, the run and the
	// delivery wake-up. With several frames in flight on a connection
	// the clock is armed by the oldest unanswered frame and stopped by
	// the next completion, so it reads as "how long the writer had
	// nothing to do", which for one frame in flight is the job itself.
	StageFirstDone
	// StageFlush runs from the writer's wake-up to its Flush returning:
	// coalescing, encoding and the socket write.
	StageFlush
	// NumWireStages is the number of stages.
	NumWireStages
)

var wireStageNames = [NumWireStages]string{"admit", "first-done", "flush"}

// String returns the stage's report name.
func (s WireStage) String() string {
	if s >= 0 && s < NumWireStages {
		return wireStageNames[s]
	}
	return "stage(?)"
}

// WireSnapshot is one consistent-enough read of a Wire's counters
// (individually atomic; the edge never needs cross-counter exactness
// while traffic flows).
type WireSnapshot struct {
	// ConnsOpened and ConnsClosed count accepted and finished
	// connections; their difference is the live-connection gauge.
	ConnsOpened uint64
	ConnsClosed uint64
	// FramesIn/BytesIn count decoded submit frames and their wire bytes;
	// FramesOut/BytesOut count flushed result writes (one flush may
	// coalesce several frames) and their bytes.
	FramesIn  uint64
	FramesOut uint64
	BytesIn   uint64
	BytesOut  uint64
	// JobsIn counts decoded submit records; ResultsOut counts result
	// records streamed back (both statuses); Refused counts the subset
	// that carried a non-OK status.
	JobsIn     uint64
	ResultsOut uint64
	Refused    uint64
	// EdgePolls counts the polling readers' empty polls (a non-blocking
	// read of their own socket that found nothing, then a sweep when
	// some other reader is parked); EdgePollHits the poll spells that
	// ended with the reader's own bytes arriving — a netpoll park
	// avoided; EdgeSweeps the sweeps made, one epoll_wait each; EdgeKicks
	// the parked readers a sweep woke; EdgeParks the blocking reads
	// issued (every read of a cold edge, and a hot one's fallback once
	// its poll window closed). All zero on a server with no poller.
	EdgePolls    uint64
	EdgePollHits uint64
	EdgeSweeps   uint64
	EdgeKicks    uint64
	EdgeParks    uint64
	// EdgeHeatNS is the server-wide EWMA of submit-frame inter-arrival
	// time (Heat), the signal the poller is gated on.
	EdgeHeatNS int64
}

// ConnOpened records one accepted connection.
func (w *Wire) ConnOpened() { w.connsOpened.add(1) }

// ConnClosed records one finished connection.
func (w *Wire) ConnClosed() { w.connsClosed.add(1) }

// FrameIn records one decoded submit frame carrying jobs records.
func (w *Wire) FrameIn(jobs, bytes int) {
	w.framesIn.add(1)
	w.jobsIn.add(jobs)
	w.bytesIn.add(bytes)
}

// FlushOut records one coalesced result write of bytes wire bytes.
func (w *Wire) FlushOut(bytes int) {
	w.framesOut.add(1)
	w.bytesOut.add(bytes)
}

// ResultOut records result records streamed back, refused of which
// carried a non-OK status.
func (w *Wire) ResultOut(n, refused int) {
	w.resultsOut.add(n)
	w.refused.add(refused)
}

// EdgeSpell records one finished poll spell: polls empty polls, sweeps
// of them followed by a sweep, ending with the reader's own bytes (hit)
// or not. A read that found its bytes at once polled nothing and records
// nothing.
func (w *Wire) EdgeSpell(polls, sweeps int, hit bool) {
	if polls == 0 {
		return
	}
	w.edgePolls.add(polls)
	w.edgeSweeps.add(sweeps)
	if hit {
		w.edgePollHits.add(1)
	}
}

// EdgeKick records n parked readers woken by one sweep.
func (w *Wire) EdgeKick(n int) { w.edgeKicks.add(n) }

// EdgePark records one blocking read issued.
func (w *Wire) EdgePark() { w.edgeParks.add(1) }

// Snapshot reads every counter.
func (w *Wire) Snapshot() WireSnapshot {
	return WireSnapshot{
		ConnsOpened:  w.connsOpened.load(),
		ConnsClosed:  w.connsClosed.load(),
		FramesIn:     w.framesIn.load(),
		FramesOut:    w.framesOut.load(),
		BytesIn:      w.bytesIn.load(),
		BytesOut:     w.bytesOut.load(),
		JobsIn:       w.jobsIn.load(),
		ResultsOut:   w.resultsOut.load(),
		Refused:      w.refused.load(),
		EdgePolls:    w.edgePolls.load(),
		EdgePollHits: w.edgePollHits.load(),
		EdgeSweeps:   w.edgeSweeps.load(),
		EdgeKicks:    w.edgeKicks.load(),
		EdgeParks:    w.edgeParks.load(),
		EdgeHeatNS:   w.Heat.NS(),
	}
}

// RecordStage adds one stage sample of ns nanoseconds.
func (w *Wire) RecordStage(s WireStage, ns int64) {
	w.stageMu.Lock()
	w.stages[s].Record(ns)
	w.stageMu.Unlock()
}

// Stages returns a copy of the stage histograms, safe to read while
// connections are live.
func (w *Wire) Stages() [NumWireStages]stats.Histogram {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	return w.stages
}
