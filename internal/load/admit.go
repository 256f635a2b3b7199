package load

import "time"

// Admission — the balancing level at the very entry of the job dataflow.
// The paper's thesis is that balancing decisions must react to load at
// every level; before this file, admission was the one level with no
// policy at all: a full backlog simply blocked the submitter forever.
// AdmitPolicy makes the admission edge a schedulable decision like victim
// selection, dispatch, and migration: the policy consumes the same
// Signals the other levels read and decides whether a submission waits for
// space, is rejected outright, or is shed because its deadline cannot be
// met anyway.

// Class is a submission's priority class. Each serving team keeps one
// bounded admission queue per class and its workers adopt strictly in
// priority order (ByPriority), so a flood of background jobs can never
// head-of-line-block interactive ones. Class values are storage indices,
// deliberately ordered so the zero value — what a caller gets from an
// unfilled SubmitOpts — is the neutral batch class, never an accidental
// priority boost; adoption precedence is defined by ByPriority/Rank, not
// by the numeric value.
type Class int

const (
	// ClassBatch is the default class (the zero value, and what plain
	// Submit uses): throughput work without a latency contract.
	ClassBatch Class = iota
	// ClassInteractive is latency-sensitive traffic: adopted before any
	// queued batch or background job. It must be requested explicitly.
	ClassInteractive
	// ClassBackground is deferrable work — the first class an admission
	// policy sheds under saturation.
	ClassBackground
	// NumClasses is the number of priority classes.
	NumClasses
)

// ByPriority lists the classes in adoption order, highest priority
// first: workers drain interactive before batch before background.
var ByPriority = [NumClasses]Class{ClassInteractive, ClassBatch, ClassBackground}

// Rank returns c's adoption rank: 0 is adopted first. Out-of-range
// classes rank last.
func (c Class) Rank() int {
	for r, k := range ByPriority {
		if k == c {
			return r
		}
	}
	return int(NumClasses)
}

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassInteractive:
		return "interactive"
	case ClassBackground:
		return "background"
	}
	return "class(?)"
}

// ParseClass maps a class name back to its Class (the inverse of String).
func ParseClass(name string) (Class, bool) {
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

// AdmitDecision is an admission policy's verdict on one submission. It
// selects the *mode* of the enqueue the runtime then performs, so the
// decision cannot race the queue state: a Wait submission blocks until
// space (or its context/deadline cancels it), a Reject submission only
// enters if space is immediately available, a Shed submission never
// enters.
type AdmitDecision int

const (
	// AdmitWait admits the job, blocking the submitter while its class
	// queue is full (today's backpressure semantics).
	AdmitWait AdmitDecision = iota
	// AdmitReject admits the job only if its class queue has space right
	// now; a full queue returns ErrBacklogFull instead of blocking.
	AdmitReject
	// AdmitShed refuses the job outright (ErrShed): given the current
	// load signals its deadline cannot be met, so queueing it would only
	// waste capacity on work that is already late.
	AdmitShed
)

// String returns the decision name.
func (d AdmitDecision) String() string {
	switch d {
	case AdmitWait:
		return "wait"
	case AdmitReject:
		return "reject"
	case AdmitShed:
		return "shed"
	}
	return "decision(?)"
}

// AdmitRequest describes one submission at the admission edge.
type AdmitRequest struct {
	// Class is the submission's priority class.
	Class Class
	// Deadline is the remaining completion budget, 0 when the submission
	// carries none. (Expired deadlines never reach the policy: the
	// runtime returns ErrDeadlineExceeded for them directly.)
	Deadline time.Duration
	// Queued and Capacity describe the submission's class queue: current
	// depth and bound.
	Queued, Capacity int
	// Tenant identifies the submitting tenant and its fair-share weight
	// (zero value: tenant 0, weight 1).
	Tenant Tenant
	// TenantQueued is the tenant's own footprint at this team's
	// admission edge: its submissions granted but not yet adopted,
	// including submitters currently blocked waiting for queue space —
	// the quantity WFQAdmit bounds against the tenant's share.
	TenantQueued int
	// Saturated is the runtime's saturation verdict: queued plus running
	// work has reached the team's capacity (Signals.Load() >= 1).
	// Shedding policies engage only while it holds, so a team that is
	// keeping up never drops work.
	Saturated bool
}

// AdmitPolicy decides one submission's admission mode from the request
// and the team's current load signals. Implementations must be safe for
// concurrent use: every submitter goroutine calls Admit.
type AdmitPolicy interface {
	Admit(req AdmitRequest, sig Signals) AdmitDecision
}

// BlockWhenFull is the compatibility policy and the default: every
// submission waits for space, exactly the bare-channel backpressure the
// task service launched with. Cancellation still works — a waiting
// submitter unblocks on its context or deadline — but the policy itself
// never refuses work.
type BlockWhenFull struct{}

// Admit always returns AdmitWait.
func (BlockWhenFull) Admit(AdmitRequest, Signals) AdmitDecision { return AdmitWait }

// RejectWhenFull is fail-fast admission: a submission whose class queue
// is full returns ErrBacklogFull immediately instead of blocking, the
// shape a service front end wants when the caller owns retry/backoff.
// Returning AdmitReject unconditionally (rather than checking Queued
// here) keeps the check-then-enqueue race on the runtime side, where the
// enqueue itself is atomic.
type RejectWhenFull struct{}

// Admit always returns AdmitReject.
func (RejectWhenFull) Admit(AdmitRequest, Signals) AdmitDecision { return AdmitReject }

// DeadlineShed is deadline-aware load shedding: while the team is
// saturated, a submission whose deadline cannot be met given the EWMA
// job service time and the queue depth ahead of it is shed at the door
// (ErrShed) — queueing it would burn capacity on work that is already
// late and delay work that can still make it. Submissions survive the
// predictor when the team is not saturated, when they carry no deadline,
// or when no job-time estimate exists yet (cold start never sheds); a
// full class queue is rejected rather than blocked on, so admission
// latency stays bounded in the regime this policy is built for.
type DeadlineShed struct {
	// Slack scales the predicted completion time before comparing it to
	// the deadline: values above 1 shed earlier (pessimistic), below 1
	// later. 0 means 1.
	Slack float64
}

// Admit implements the shed predictor described on the type.
func (p DeadlineShed) Admit(req AdmitRequest, sig Signals) AdmitDecision {
	if !req.Saturated || req.Deadline <= 0 || sig.JobNS <= 0 {
		return AdmitReject
	}
	// Work that will be adopted before this submission under strict
	// priority-order adoption: every queued job of an equal or higher
	// priority class — the same effective depth class-aware dispatch
	// compares.
	ahead := EffectiveDepth(sig, req.Class)
	capacity := sig.Capacity
	if capacity < 1 {
		capacity = 1
	}
	slack := p.Slack
	if slack <= 0 {
		slack = 1
	}
	// Predicted completion: the queue ahead drains at capacity jobs per
	// JobNS, then the job itself runs for one JobNS.
	eta := time.Duration(slack * sig.JobNS * (ahead/capacity + 1))
	if eta > req.Deadline {
		return AdmitShed
	}
	return AdmitReject
}
