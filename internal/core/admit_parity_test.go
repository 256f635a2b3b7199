package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/prof"
)

// parityTenant is the tenant every parity-table submission carries, so
// its per-tenant counters are not mixed with the set-up traffic's
// (tenant 0).
const parityTenant = 3

// TestAdmitSingleBatchParity pins "a single submission is the batch of
// one": every admission outcome is driven through SubmitCtx(x) and
// through SubmitBatchInto([x]) on fresh teams in the same state, and both
// must report the same error identity, move the same admission counters
// (per class and per tenant), and leave every gauge at zero once the
// team has drained.
func TestAdmitSingleBatchParity(t *testing.T) {
	const workers, backlog = 1, 2
	noop := func(*Worker) {}
	// tight is a deadline the ~40ms predicted completion on a saturated
	// team cannot meet, yet far enough out not to expire before the verdict.
	tight := func() time.Time { return time.Now().Add(10 * time.Millisecond) }
	// full wedges the worker and fills the batch ring, so the next batch
	// submission finds no space.
	full := func(t *testing.T, tm *Team, gate chan struct{}) { occupy(t, tm, workers, backlog, gate) }
	cancelled := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}

	cases := []struct {
		name   string
		policy load.AdmitPolicy
		// state puts the fresh serving team into the state the case needs;
		// jobs it parks on gate are released after the submission returns.
		state func(t *testing.T, tm *Team, gate chan struct{})
		ctx   func() context.Context // nil: context.Background()
		fn    TaskFunc
		opts  func() SubmitOpts // nil: zero SubmitOpts (plus the parity tenant)
		// cancelBlocked cancels the submission's context once it is blocked
		// at the edge (its accounting raised, its enqueue refused).
		cancelBlocked bool
		want          error             // errors.Is target; nil: admitted
		outcome       prof.AdmitOutcome // the one counter that moves; -1: none
	}{
		{name: "nil fn", fn: nil, want: ErrInvalid, outcome: -1},
		{name: "class out of range", fn: noop, want: ErrInvalid, outcome: -1,
			opts: func() SubmitOpts { return SubmitOpts{Priority: load.NumClasses} }},
		{name: "negative tenant weight", fn: noop, want: ErrInvalid, outcome: -1,
			opts: func() SubmitOpts { return SubmitOpts{Tenant: load.Tenant{Weight: -1}} }},
		{name: "pre-cancelled ctx", fn: noop, ctx: cancelled, want: context.Canceled, outcome: prof.AdmitCancelled},
		{name: "pre-expired deadline", fn: noop, want: ErrDeadlineExceeded, outcome: prof.AdmitExpired,
			opts: func() SubmitOpts { return SubmitOpts{Deadline: time.Now().Add(-time.Millisecond)} }},
		{name: "reject on a full ring", policy: load.RejectWhenFull{}, state: full, fn: noop,
			want: ErrBacklogFull, outcome: prof.AdmitRejected},
		{name: "shed", policy: load.DeadlineShed{}, state: saturateForShed, fn: noop,
			opts: func() SubmitOpts { return SubmitOpts{Deadline: tight()} },
			want: ErrShed, outcome: prof.AdmitShed},
		{name: "shed while closing", policy: load.DeadlineShed{}, fn: noop,
			state: func(t *testing.T, tm *Team, gate chan struct{}) {
				saturateForShed(t, tm, gate)
				go tm.Close() // cuts admission at once, then waits for the gated job
				svc := tm.svc.Load()
				waitFor(t, func() bool { return svc.phase() == svcClosing })
			},
			opts: func() SubmitOpts { return SubmitOpts{Deadline: tight()} },
			want: ErrClosed, outcome: -1},
		{name: "closed team", fn: noop, want: ErrClosed, outcome: -1,
			state: func(t *testing.T, tm *Team, _ chan struct{}) {
				if err := tm.Close(); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "deadline during a blocked wait", state: full, fn: noop,
			opts: func() SubmitOpts { return SubmitOpts{Deadline: time.Now().Add(30 * time.Millisecond)} },
			want: ErrDeadlineExceeded, outcome: prof.AdmitExpired},
		{name: "cancel during a blocked wait", state: full, fn: noop, cancelBlocked: true,
			want: context.Canceled, outcome: prof.AdmitCancelled},
		{name: "admitted", fn: noop, outcome: prof.AdmitAdmitted},
		{name: "admitted under a nil ctx", fn: noop, outcome: prof.AdmitAdmitted,
			ctx: func() context.Context { return nil }},
	}

	// observed is everything the two paths must agree on.
	type observed struct {
		matches bool // errors.Is(err, want), or admitted when want is nil
		class   [prof.NumAdmitOutcomes]uint64
		tenant  [prof.NumAdmitOutcomes]uint64
	}
	for _, tc := range cases {
		run := func(t *testing.T, batch bool) observed {
			tm := admitTeam(t, workers, backlog, tc.policy)
			gate := make(chan struct{})
			if tc.state != nil {
				tc.state(t, tm, gate)
			}
			ctx := context.Background()
			if tc.ctx != nil {
				ctx = tc.ctx()
			}
			if tc.cancelBlocked {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
				blocked := tm.ActiveJobs() + 1
				go func() {
					for tm.ActiveJobs() < blocked {
						time.Sleep(time.Millisecond)
					}
					cancel()
				}()
			}
			var opts SubmitOpts
			if tc.opts != nil {
				opts = tc.opts()
			}
			class := int(load.ClassBatch)
			if opts.Priority >= 0 && opts.Priority < load.NumClasses {
				class = int(opts.Priority)
			}
			opts.Tenant.ID = parityTenant
			before := admitCounts(tm.Profile())[class]

			var (
				j   *Job
				err error
			)
			if batch {
				res, berr := submitBatch(ctx, tm, []BatchItem{{Fn: tc.fn, Opts: opts}})
				if berr != nil || len(res) != 1 {
					t.Fatalf("SubmitBatchInto = (%d results, %v), want one result and no batch error", len(res), berr)
				}
				if (res[0].Job == nil) == (res[0].Err == nil) {
					t.Fatalf("BatchResult %+v: want exactly one of Job and Err", res[0])
				}
				j, err = res[0].Job, res[0].Err
			} else {
				j, err = tm.SubmitCtx(ctx, tc.fn, opts)
			}

			var o observed
			if tc.want == nil {
				o.matches = err == nil && j != nil
			} else {
				o.matches = errors.Is(err, tc.want) && j == nil
			}
			if !o.matches {
				t.Errorf("got (%v, %v), want error %v", j, err, tc.want)
			}
			after := admitCounts(tm.Profile())[class]
			for oc := range after {
				o.class[oc] = after[oc] - before[oc]
				o.tenant[oc] = tm.Profile().Tenants()[parityTenant].Counts[oc]
				want := uint64(0)
				if prof.AdmitOutcome(oc) == tc.outcome {
					want = 1
				}
				if o.class[oc] != want || o.tenant[oc] != want {
					t.Errorf("%v counter moved by %d (class) / %d (tenant), want %d",
						prof.AdmitOutcome(oc), o.class[oc], o.tenant[oc], want)
				}
			}

			close(gate)
			if j != nil {
				if err := j.Wait(); err != nil {
					t.Error(err)
				}
			}
			if err := tm.Close(); err != nil {
				t.Fatal(err)
			}
			p := tm.Profile()
			if d := p.QueueDepth(); d != 0 {
				t.Errorf("NJOBS_QUEUED = %d after drain, want 0", d)
			}
			for c := 0; c < int(load.NumClasses); c++ {
				if d := p.ClassQueued(c); d != 0 {
					t.Errorf("class %v queue gauge = %d after drain, want 0", load.Class(c), d)
				}
			}
			for _, id := range []int{0, parityTenant} {
				if d := p.TenantQueued(id); d != 0 {
					t.Errorf("tenant %d queue gauge = %d after drain, want 0", id, d)
				}
			}
			if a := tm.ActiveJobs(); a != 0 {
				t.Errorf("ActiveJobs = %d after drain, want 0", a)
			}
			return o
		}
		t.Run(tc.name, func(t *testing.T) {
			single, batch := run(t, false), run(t, true)
			if single != batch {
				t.Fatalf("SubmitCtx observed %+v, SubmitBatchInto of one observed %+v", single, batch)
			}
		})
	}
}
