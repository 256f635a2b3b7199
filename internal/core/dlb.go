package core

import (
	"repro/internal/load"
	"repro/internal/prof"
	"repro/internal/rng"
)

// The lock-less messaging protocol (§IV-B): each worker owns two padded
// 64-bit cells. The round cell is a monotonically increasing number,
// starting at 1, incremented by the victim each time it finishes handling a
// steal request. The request cell packs the thief's 24-bit worker id above
// a 40-bit round number; a thief publishes a request by storing
// (thiefID << 40) | victimRound when the pending request is stale. All
// accesses are plain atomic loads and stores — overwrites between racing
// thieves are tolerated by design and recovered by the thief timeout.
//
// The strategy and its tunables are the team's Config.DLB, fixed when the
// team is built; victims are picked by load.CondRandom through the
// worker's victimView.
const (
	roundBits = 40
	roundMask = (uint64(1) << roundBits) - 1
	// maxWorkers is the largest team the 24-bit thief id can address.
	maxWorkers = 1 << 24
)

// thiefStep runs at every idle scheduling point. It counts idle visits and,
// every TInterval visits, sends steal requests to NVictim victims chosen
// conditionally at random (Alg. 1). cfg is the team's DLB configuration.
func (tm *Team) thiefStep(w *Worker, cfg *DLBConfig) {
	w.timeoutCtr++
	if w.timeoutCtr < cfg.TInterval {
		return
	}
	w.timeoutCtr = 0
	for i := 0; i < cfg.NVictim; i++ {
		v := tm.pickVictim(w, cfg.PLocal)
		if v < 0 {
			return
		}
		vw := tm.workers[v]
		round := vw.round.Load() & roundMask
		req := vw.request.Load()
		if req&roundMask != round { // stale (curr < round, wrap-safe)
			vw.request.Store(uint64(w.id)<<roundBits | round)
			w.prof.Inc(prof.CntReqSent)
		}
	}
}

// pickVictim is the paper's conditionally random pick (load.CondRandom):
// NUMA-local with probability plocal, NUMA-remote otherwise, never self.
// It returns -1 when no other worker exists.
func (tm *Team) pickVictim(w *Worker, plocal float64) int {
	return load.CondRandom{}.Pick(&w.view, plocal)
}

// victimView adapts one worker to load.VictimView: the read-only window
// victim selection gets onto the team. The slices alias the team's
// candidate tables and must not be mutated.
type victimView struct{ w *Worker }

func (v *victimView) Thief() int         { return v.w.id }
func (v *victimView) LocalPeers() []int  { return v.w.team.top.Peers(v.w.zone) }
func (v *victimView) RemotePeers() []int { return v.w.team.remotes[v.w.zone] }

func (v *victimView) Rand() *rng.State { return &v.w.rng }

// victimCheck runs whenever a worker finds a task to execute (it has become
// a victim, Alg. 2). A request is valid when its round number equals the
// victim's current round; the victim then applies the configured strategy
// and increments its round to accept new requests — immediately for NA-WS,
// or once the redirect completes for NA-RP (§IV-C). cfg is the team's
// DLB configuration.
func (tm *Team) victimCheck(w *Worker, cfg *DLBConfig) {
	if w.handlingReq {
		return // re-entrant scheduling point inside doLoadBalancing
	}
	req := w.request.Load()
	round := w.round.Load()
	if req&roundMask != round&roundMask {
		return
	}
	w.prof.Inc(prof.CntReqHandled)
	thief := int(req >> roundBits)
	if thief == w.id {
		// Malformed: drop the request and accept new ones.
		w.round.Store(round + 1)
		return
	}
	switch cfg.Strategy {
	case DLBWorkSteal:
		w.handlingReq = true
		tm.doWorkSteal(w, thief, cfg)
		w.handlingReq = false
		w.round.Store(round + 1)
	case DLBRedirectPush:
		if w.redirectThief < 0 {
			w.redirectThief = thief
			w.redirectLeft = cfg.NSteal
			w.redirectedAny = false
			// round advances in finishRedirect.
		}
	}
}

// doWorkSteal is NA-WS (Alg. 4): migrate up to NSteal tasks from the
// victim's own queues into the thief's queue. The round of stealing stops
// when the victim runs dry, the thief's queue fills, or NSteal moved.
func (tm *Team) doWorkSteal(w *Worker, thief int, cfg *DLBConfig) {
	moved := 0
	for moved < cfg.NSteal {
		if tm.sched.targetFull(w.id, thief) {
			w.prof.Inc(prof.CntReqTargetFull)
			break
		}
		t := tm.sched.popLocal(w.id)
		if t == nil {
			if moved == 0 {
				w.prof.Inc(prof.CntReqSrcEmpty)
			}
			break
		}
		if !w.pushTo(thief, t) {
			w.prof.Inc(prof.CntReqTargetFull)
			// The task is ours again; requeue locally or run it now.
			if !w.pushTo(w.id, t) {
				w.runNow(t)
			}
			break
		}
		moved++
	}
	if moved > 0 {
		w.prof.Inc(prof.CntReqHasSteal)
		w.prof.Add(prof.CntTasksStolen, uint64(moved))
		if tm.top.SameZone(w.id, thief) {
			w.prof.Add(prof.CntStolenLocal, uint64(moved))
		} else {
			w.prof.Add(prof.CntStolenRemote, uint64(moved))
		}
	}
}

// tryRedirect is the NA-RP placement hook (Alg. 3): while a redirect is
// armed, newly created tasks go straight to the thief's queue. It reports
// whether t was placed; on false the caller falls back to static placement.
func (w *Worker) tryRedirect(t *Task) bool {
	tm := w.team
	thief := w.redirectThief
	if w.redirectLeft <= 0 {
		w.finishRedirect()
		return false
	}
	if tm.sched.targetFull(w.id, thief) || !w.pushTo(thief, t) {
		w.prof.Inc(prof.CntReqTargetFull)
		w.finishRedirect()
		return false
	}
	w.redirectLeft--
	if !w.redirectedAny {
		w.redirectedAny = true
		w.prof.Inc(prof.CntReqHasSteal)
	}
	w.prof.Inc(prof.CntTasksStolen)
	if tm.top.SameZone(w.id, thief) {
		w.prof.Inc(prof.CntStolenLocal)
	} else {
		w.prof.Inc(prof.CntStolenRemote)
	}
	if w.redirectLeft == 0 {
		w.finishRedirect()
	}
	return true
}

// finishRedirect disarms NA-RP and advances the round so the victim accepts
// new requests again.
func (w *Worker) finishRedirect() {
	w.redirectThief = -1
	w.round.Store(w.round.Load() + 1)
}
