package core

import "repro/internal/load"

// Second-level load balancing: whole-job migration between serving teams.
//
// The DLB strategies in dlb.go balance tasks *within* one team; they never
// cross team boundaries, because tasks of a running job share the team's
// queueing substrate and counters. A sharded pool (one serving team per
// NUMA domain) therefore needs a coarser balancing level above the thread
// scheduler: jobs that are still whole — submitted but not yet adopted by
// any worker — can move between teams freely, since a queued root task has
// touched nothing of its team's substrate yet. MigrateQueuedJob is that
// move; it mirrors the paper's NA-WS semantics one layer up (the idle
// shard is the thief, the overloaded shard's admission queue the victim).

// MigrateQueuedJob moves one submitted-but-unadopted job from src's
// admission queue onto dst, preserving the job's handle, quiescence
// detection, and panic isolation. It returns true when a job moved, and
// false when src has no queued job, either team is not serving, or dst has
// already begun closing (admission accounting may not be added to a team
// whose Close could be past its active-jobs wait).
//
// The job's completion accounting transfers with it: dst counts the job
// active before src uncounts it, so no Close on either team can observe
// the job unaccounted. The job keeps the ID issued by src — and its
// admission priority class: it re-enters dst's queue for the same class,
// so migration can never promote background work past interactive jobs
// (or demote interactive work behind them). Candidates are drawn from
// src's lowest-priority non-empty class queue first: under strict
// class-order adoption the hot shard serves its interactive backlog
// soonest anyway, so the jobs that gain the most from moving to an idle
// shard are the ones furthest back in the adoption order. Its JobRecord
// lands on dst's profile with Migrated set.
func MigrateQueuedJob(src, dst *Team) bool {
	if src == dst {
		return false
	}
	ssvc := src.svc.Load()
	dsvc := dst.svc.Load()
	if ssvc == nil || dsvc == nil || ssvc.done.Load() || dsvc.done.Load() {
		return false
	}
	// A task still in the admission ring is by definition unadopted;
	// dequeuing it makes this goroutine its exclusive owner (the ring is
	// MPMC precisely so the balancer can consume alongside the workers).
	// Candidates come from the lowest-priority non-empty queue first
	// (ByPriority reversed). The freed slot rings src's space gate like
	// any other dequeue, releasing a submitter blocked on the full ring.
	var t *Task
	for i := len(load.ByPriority) - 1; i >= 0; i-- {
		c := load.ByPriority[i]
		if v, ok := ssvc.submit[c].TryDequeue(); ok {
			ssvc.space[c].Wake()
			t = v
			break
		}
	}
	if t == nil {
		return false
	}
	j := t.job

	// Count the job into dst before uncounting it from src. A dst that
	// has begun closing is refused: its Close may already be past the
	// point where it waits for active jobs.
	dsvc.mu.Lock()
	if dsvc.closed {
		dsvc.mu.Unlock()
		// Put the job back. The blocking enqueue cannot hang: the job is
		// still in src's active count, so src's workers keep serving (and
		// draining this ring) until it is adopted and completed. src's
		// queued gauges never dropped it — between the dequeue and here it
		// read as a submitter blocked at the edge does.
		ssvc.enqueueBlocking(j.class, t)
		return false
	}
	dsvc.active++
	dsvc.mu.Unlock()
	// Uncount from src now, not after the enqueue below: once the job is
	// in dst's ring it can complete, and a returned Wait must find it in
	// neither count (the same rule finishJob keeps).
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
	// The blocking enqueue is safe for the same reason as the rollback
	// above, now on dst: the job is in dst's active count, so dst's
	// workers cannot stop before draining it.
	dsvc.enqueueBlocking(j.class, t)
	return true
}
