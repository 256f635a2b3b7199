package load

import (
	"testing"
	"time"
)

// Table-driven coverage of every admission policy's decision function
// across the saturation regimes: space available, full class queue,
// deadlines feasible and infeasible, saturated and not, cold start.
func TestAdmitPolicies(t *testing.T) {
	// A shard picture: 1 worker, ~10ms jobs, 4 interactive + 2 batch
	// queued (ClassQueueDepth is indexed by Class value: batch,
	// interactive, background).
	busy := Signals{
		QueueDepth:      6,
		ClassQueueDepth: [NumClasses]float64{2, 4, 0},
		Running:         1,
		Capacity:        1,
		JobNS:           float64(10 * time.Millisecond),
	}
	cold := Signals{Capacity: 1} // no completed jobs yet: JobNS == 0

	cases := []struct {
		name   string
		policy AdmitPolicy
		req    AdmitRequest
		sig    Signals
		want   AdmitDecision
	}{
		// BlockWhenFull: always wait, regardless of fullness, deadline,
		// or saturation.
		{"block/space", BlockWhenFull{}, AdmitRequest{Class: ClassBatch, Queued: 0, Capacity: 4}, busy, AdmitWait},
		{"block/full", BlockWhenFull{}, AdmitRequest{Class: ClassBatch, Queued: 4, Capacity: 4}, busy, AdmitWait},
		{"block/deadline-saturated", BlockWhenFull{}, AdmitRequest{Class: ClassBackground, Deadline: time.Millisecond, Queued: 4, Capacity: 4, Saturated: true}, busy, AdmitWait},

		// RejectWhenFull: always the non-blocking mode; the runtime turns
		// it into ErrBacklogFull exactly when the enqueue would block.
		{"reject/space", RejectWhenFull{}, AdmitRequest{Class: ClassBatch, Queued: 0, Capacity: 4}, busy, AdmitReject},
		{"reject/full", RejectWhenFull{}, AdmitRequest{Class: ClassBatch, Queued: 4, Capacity: 4}, busy, AdmitReject},

		// DeadlineShed: sheds only when saturated, deadlined, and the
		// prediction says the deadline is hopeless.
		{"shed/not-saturated", DeadlineShed{}, AdmitRequest{Class: ClassBatch, Deadline: time.Millisecond, Saturated: false}, busy, AdmitReject},
		{"shed/no-deadline", DeadlineShed{}, AdmitRequest{Class: ClassBatch, Saturated: true}, busy, AdmitReject},
		{"shed/cold-start", DeadlineShed{}, AdmitRequest{Class: ClassBatch, Deadline: time.Millisecond, Saturated: true}, cold, AdmitReject},
		// Batch behind 4+2 queued jobs at ~10ms each: eta ≈ 70ms.
		{"shed/infeasible", DeadlineShed{}, AdmitRequest{Class: ClassBatch, Deadline: 20 * time.Millisecond, Saturated: true}, busy, AdmitShed},
		{"shed/feasible", DeadlineShed{}, AdmitRequest{Class: ClassBatch, Deadline: 200 * time.Millisecond, Saturated: true}, busy, AdmitReject},
		// An interactive submission ignores the batch backlog it will be
		// adopted ahead of: eta ≈ 50ms, so a 60ms deadline survives where
		// a batch job's would not.
		{"shed/class-aware", DeadlineShed{}, AdmitRequest{Class: ClassInteractive, Deadline: 60 * time.Millisecond, Saturated: true}, busy, AdmitReject},
		{"shed/class-aware-batch", DeadlineShed{}, AdmitRequest{Class: ClassBatch, Deadline: 60 * time.Millisecond, Saturated: true}, busy, AdmitShed},
		// Slack scales the prediction: 2x pessimism sheds the 200ms
		// deadline the default admits (eta 70ms → 140ms... still fine) —
		// use 100ms, eta 70ms < 100ms but 2×70ms > 100ms.
		{"shed/slack", DeadlineShed{Slack: 2}, AdmitRequest{Class: ClassBatch, Deadline: 100 * time.Millisecond, Saturated: true}, busy, AdmitShed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.policy.Admit(tc.req, tc.sig); got != tc.want {
				t.Fatalf("Admit(%+v) = %v, want %v", tc.req, got, tc.want)
			}
		})
	}
}

func TestClassNames(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		got, ok := ParseClass(c.String())
		if !ok || got != c {
			t.Fatalf("ParseClass(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := ParseClass("nope"); ok {
		t.Fatal("ParseClass accepted an unknown name")
	}
}

// EffectiveDepth: class-prefix sum with the QueueDepth fallback for
// signals that predate per-class accounting.
func TestEffectiveDepth(t *testing.T) {
	s := Signals{QueueDepth: 7, ClassQueueDepth: [NumClasses]float64{2, 1, 4}}
	if got := EffectiveDepth(s, ClassInteractive); got != 1 {
		t.Fatalf("interactive effective depth %v, want 1", got)
	}
	if got := EffectiveDepth(s, ClassBatch); got != 3 {
		t.Fatalf("batch effective depth %v, want 3", got)
	}
	if got := EffectiveDepth(s, ClassBackground); got != 7 {
		t.Fatalf("background effective depth %v, want 7", got)
	}
	legacy := Signals{QueueDepth: 5}
	if got := EffectiveDepth(legacy, ClassInteractive); got != 5 {
		t.Fatalf("legacy fallback %v, want 5", got)
	}
}

// PowerOfTwo consults the class-effective depth: a shard drowning in
// background work still wins interactive placements.
func TestPowerOfTwoClassAware(t *testing.T) {
	sigs := []Signals{
		{QueueDepth: 9, ClassQueueDepth: [NumClasses]float64{0, 0, 9}}, // background-heavy
		{QueueDepth: 3, ClassQueueDepth: [NumClasses]float64{0, 3, 0}}, // interactive-heavy
	}
	var p2 PowerOfTwo
	sig := func(i int) Signals { return sigs[i] }
	for r := uint64(0); r < 64; r++ {
		if got := p2.Pick(r, 2, ClassInteractive, sig); got != 0 {
			t.Fatalf("interactive pick %d: background backlog should not repel interactive jobs", got)
		}
		if got := p2.Pick(r, 2, ClassBackground, sig); got != 1 {
			t.Fatalf("background pick %d: total depth should steer background jobs away", got)
		}
	}
}
