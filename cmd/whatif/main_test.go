package main

import (
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/replay"
)

// rep is one synthetic replay: completions and the interactive p99.
func rep(completed uint64, p99 time.Duration) replay.JobReplayResult {
	var res replay.JobReplayResult
	res.Completed = completed
	res.PerClass[load.ClassInteractive].P99 = p99
	return res
}

// TestRankBreaksTiesOnMedianP99: with completions tied, the candidate
// whose reps sit lower in the middle wins, however good one rep of the
// other looked; completions still outrank the p99.
func TestRankBreaksTiesOnMedianP99(t *testing.T) {
	ms := time.Millisecond
	lucky := aggregate(jobCandidate{name: "lucky"},
		[]replay.JobReplayResult{rep(100, 9*ms), rep(100, 1*ms), rep(100, 9*ms)})
	steady := aggregate(jobCandidate{name: "steady"},
		[]replay.JobReplayResult{rep(100, 5*ms), rep(100, 5*ms), rep(100, 6*ms)})
	if lucky.interP99 != 9*ms || steady.interP99 != 5*ms {
		t.Fatalf("median p99s = %v, %v; want 9ms, 5ms", lucky.interP99, steady.interP99)
	}
	results := []jobResult{lucky, steady}
	rank(results)
	if results[0].cand.name != "steady" {
		t.Fatalf("ranked %s first; one extreme rep decided the tie", results[0].cand.name)
	}

	// A rep without interactive completions carries no p99 and is left
	// out of the median rather than counted as zero.
	sparse := aggregate(jobCandidate{name: "sparse"},
		[]replay.JobReplayResult{rep(100, 0), rep(100, 7*ms), rep(100, 0)})
	if sparse.interP99 != 7*ms {
		t.Fatalf("median p99 over one completing rep = %v, want 7ms", sparse.interP99)
	}

	more := aggregate(jobCandidate{name: "more"},
		[]replay.JobReplayResult{rep(101, 50*ms), rep(101, 50*ms), rep(101, 50*ms)})
	results = []jobResult{steady, more}
	rank(results)
	if results[0].cand.name != "more" {
		t.Fatalf("ranked %s first; completions must outrank the p99", results[0].cand.name)
	}
}
