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

// GapHalving is the second-level balancer's plan. Plan returns the donor,
// the receiver, and how many queued jobs to move (n == 0: no move). It
// finds the shards with the deepest and shallowest admission queues and,
// when the gap reaches Threshold, moves half the gap (halving can never
// invert the imbalance, so repeated application converges). Below the
// threshold only a *rescue* moves: a queued job stuck behind a shard
// whose active workers are all occupied, while the coldest shard sits
// empty with idle capacity, must always drain — it would otherwise wait
// out the hot shard's running work — whereas a forced move between two
// live shards would just ping-pong the job back on the next scan.
type GapHalving struct {
	// Threshold is the minimum hot-cold queue-depth gap that triggers a
	// bulk move. Values below 1 behave as 1.
	Threshold int
}

func (g GapHalving) Plan(shards []Signals) (from, to, n int) {
	if len(shards) < 2 {
		return 0, 0, 0
	}
	hot, cold := -1, -1
	var hi, lo, coldRunning float64
	for i, s := range shards {
		if hot < 0 || s.QueueDepth > hi {
			hot, hi = i, s.QueueDepth
		}
		// Equal-depth ties prefer the shard with the fewest running jobs:
		// depth alone cannot distinguish a shard that is busily draining
		// from one whose workers are wedged on long-running jobs, so at
		// least steer migrated jobs toward real adoption capacity.
		if cold < 0 || s.QueueDepth < lo || (s.QueueDepth == lo && s.Running < coldRunning) {
			cold, lo, coldRunning = i, s.QueueDepth, s.Running
		}
	}
	if hot == cold {
		return 0, 0, 0
	}
	gap := hi - lo
	moves := int(gap / 2)
	if gap < float64(g.Threshold) || moves < 1 {
		hotS, coldS := shards[hot], shards[cold]
		if hi == 0 || lo != 0 ||
			hotS.Running < hotS.Capacity ||
			coldS.Running+coldS.QueueDepth >= coldS.Capacity {
			return 0, 0, 0
		}
		moves = 1
	}
	return hot, cold, moves
}
