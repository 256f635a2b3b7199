package load

import "repro/internal/rng"

// One balancing plan per level below admission. Each plan decides
// *where* work should move; the callers own the mechanism (steal
// protocol, job migration) and the cadence. All
// decisions are made from Signals, never by probing another layer's
// internals. Admission is the one level with a choice of policies
// (AdmitPolicy, admit.go).

// VictimView is what CondRandom consults when picking a steal victim for
// an idle worker (the thief). The runtime provides one per worker; all
// methods are cheap and allocation-free.
type VictimView interface {
	// Thief is the requesting worker's id.
	Thief() int
	// LocalPeers lists the workers in the thief's NUMA zone in ascending
	// id order (the thief included).
	LocalPeers() []int
	// RemotePeers lists the workers outside the thief's zone in ascending
	// id order.
	RemotePeers() []int
	// Rand is the thief's private RNG.
	Rand() *rng.State
}

// CondRandom is the paper's conditionally random victim selection
// (§IV-B): NUMA-local with probability plocal (§IV-E's Plocal),
// NUMA-remote otherwise, never self. A thief alone in its zone falls
// through to a remote pick; a single-zone team picks any other worker.
// Pick returns a worker id, or -1 when no victim exists.
type CondRandom struct{}

func (CondRandom) Pick(v VictimView, plocal float64) int {
	t := v.Thief()
	peers, remotes := v.LocalPeers(), v.RemotePeers()
	// Single zone: the local draw is the only one there is.
	if v.Rand().Bool(plocal) || len(remotes) == 0 {
		if len(peers) > 1 {
			idx := v.Rand().Intn(len(peers) - 1)
			vic := peers[idx]
			if vic == t {
				vic = peers[len(peers)-1]
			}
			return vic
		}
		// Alone in the zone: fall through to a remote pick.
	}
	if len(remotes) > 0 {
		return remotes[v.Rand().Intn(len(remotes))]
	}
	return -1
}

// EffectiveDepth is the queue depth a class-c submission actually
// experiences on a shard: under strict priority-order adoption only jobs
// of an equal or higher priority class precede it, so the relevant
// backlog is the sum of depths over classes with Rank <= c.Rank().
// Shards that predate per-class accounting (or synthetic signals that
// only fill QueueDepth) fall back to the total.
func EffectiveDepth(s Signals, c Class) float64 {
	if s.ClassQueueDepth == ([NumClasses]float64{}) {
		return s.QueueDepth
	}
	var d float64
	for k := Class(0); k < NumClasses; k++ {
		if k.Rank() <= c.Rank() {
			d += s.ClassQueueDepth[k]
		}
	}
	return d
}

// PowerOfTwo is the dispatcher's plan, power-of-two-choices placement.
// Pick gets a fresh uniform 64-bit draw r, the shard count n, the job's
// class c and shard i's signals from sig, and returns a shard in [0, n):
// of two distinct random shards, the one where the job's class would
// queue behind less work (EffectiveDepth — an interactive job ignores
// queued background work it would be adopted ahead of); ties break to
// the fewer running jobs, then to the first draw. Two signal reads
// per placement, no shared coordination point, and an expected max-load
// exponentially better than one random choice. The class-effective depth
// also makes placement shed-aware: the shallower effective queue is the
// one where a deadline-carrying job is least likely to be shed.
type PowerOfTwo struct{}

func (PowerOfTwo) Pick(r uint64, n int, c Class, sig func(int) Signals) int {
	if n <= 1 {
		return 0
	}
	a := int(r % uint64(n))
	b := int((r >> 32) % uint64(n))
	if a == b {
		b = (b + 1) % n
	}
	sa, sb := sig(a), sig(b)
	da, db := EffectiveDepth(sa, c), EffectiveDepth(sb, c)
	switch {
	case db < da:
		return b
	case da < db:
		return a
	case sb.Running < sa.Running:
		return b
	}
	return a
}

// FillIdle is the second-level balancer's plan, the paper's thief-first
// rule (§IV-B–D) one layer up: a queued job moves only to a shard that
// has a worker with nothing to do. A shard's *stuck* jobs are its queued
// jobs beyond its idle workers, min(Q, Q+R−C)⁺; its *free* workers are
// those neither running a job nor about to adopt a queued one, (C−R−Q)⁺.
// FillIdle names the shard with the most stuck jobs, the shard with the
// most free workers, and n = min(stuck, free) jobs to move between them;
// n == 0 when no shard has both. A shard with a stuck job has no free
// worker, so the two are distinct whenever n > 0, and two busy shards
// never trade jobs.
func FillIdle(shards []Signals) (from, to, n int) {
	var stuck, free float64
	for i, s := range shards {
		if k := min(s.QueueDepth, s.QueueDepth+s.Running-s.Capacity); k > stuck {
			from, stuck = i, k
		}
		if k := s.Capacity - s.Running - s.QueueDepth; k > free {
			to, free = i, k
		}
	}
	return from, to, int(min(stuck, free))
}
