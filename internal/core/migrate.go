package core

import "repro/internal/load"

// Second-level load balancing: whole-job migration between serving teams.
//
// The DLB strategies in dlb.go balance tasks *within* one team; tasks of a
// running job share the team's queueing substrate and counters and never
// cross teams. A job that is still whole — submitted but not yet adopted —
// has touched nothing of its team's substrate and can move freely, which
// is the paper's NA-WS one layer up: the idle shard is the thief, the
// overloaded shard's admission queue the victim.

// MigrateQueuedJob moves one submitted-but-unadopted job from src's
// admission queue onto dst, preserving the job's handle, quiescence
// detection, and panic isolation. It returns true when a job moved, and
// false when src has no queued job, either team is not serving, or dst has
// begun closing: a migrate-in is a reserve like any admission, taken on
// dst before the job leaves src's ring and retired on src before it
// enters dst's, so no Close on either team sees the job unaccounted and a
// returned Wait finds it in neither count (ARCHITECTURE.md, "Service
// lifecycle").
//
// The job keeps the ID issued by src and its admission priority class: it
// re-enters dst's queue for the same class, so migration can never
// promote background work past interactive jobs (or demote interactive
// work behind them). Candidates are drawn from src's lowest-priority
// non-empty class queue first: under strict class-order adoption the hot
// shard serves its interactive backlog soonest anyway, so the jobs that
// gain the most from moving are the ones furthest back in the adoption
// order. Its JobRecord lands on dst's profile with Migrated set.
func MigrateQueuedJob(src, dst *Team) bool {
	if src == dst {
		return false
	}
	ssvc, dsvc := src.svc.Load(), dst.svc.Load()
	if ssvc == nil || dsvc == nil || ssvc.phase() == svcStopped || !dsvc.reserve(1) {
		return false
	}
	// A task still in the admission ring is by definition unadopted;
	// dequeuing it makes this goroutine its exclusive owner (the ring is
	// MPMC precisely so the balancer can consume alongside the workers).
	// The freed slot may release a parked run, like any other dequeue.
	var t *Task
	for i := len(load.ByPriority) - 1; i >= 0 && t == nil; i-- {
		c := load.ByPriority[i]
		if v, ok := ssvc.submit[c].TryDequeue(); ok {
			ssvc.runs[c].dequeued()
			t = v
		}
	}
	if t == nil {
		dsvc.jobDone() // nothing to move: hand the reservation back
		return false
	}
	j := t.job
	src.profile.Migrated(j.class, j.tenant, -1)
	ssvc.jobDone()

	j.migrated.Store(true)
	// Rebase the submission timestamp onto dst's profile clock (each
	// profile's nanosecond base is its construction time), so QueueDelay
	// and the JobRecord recorded on dst stay on one time base. Sampling
	// the two clocks back-to-back bounds the rebase error to nanoseconds.
	j.submitNS.Add(dst.profile.Now() - src.profile.Now())
	dst.profile.Migrated(j.class, j.tenant, 1)
	// The job leaves src's tenant plane with it: a tenant-tracking
	// admission policy on src granted this work and would otherwise
	// count it in flight forever. When both teams share one policy
	// instance — a sharded pool's pool-wide plane — the grant is still
	// live and dst's completion will release it; otherwise release it
	// here (dst's policy sees the completion as unmatched and floors it,
	// so fairness accounting degrades gracefully instead of leaking).
	if ob, ok := src.admit.(load.TenantObserver); ok {
		if dob, dok := dst.admit.(load.TenantObserver); !dok || dob != ob {
			ob.ObserveComplete(j.tenant, 0)
		}
	}
	dsvc.enqueueMigrated(j.class, t)
	return true
}
