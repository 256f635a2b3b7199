package load

import (
	"testing"

	"repro/internal/rng"
)

func TestSignalsLoad(t *testing.T) {
	s := Signals{QueueDepth: 3, Running: 2, Capacity: 2}
	if got := s.Load(); got != 2.5 {
		t.Fatalf("Load = %v, want 2.5", got)
	}
	// Zero capacity must not divide by zero.
	if got := (Signals{QueueDepth: 4}).Load(); got != 4 {
		t.Fatalf("zero-capacity Load = %v, want 4", got)
	}
}

// viewStub implements VictimView over a synthetic team of workers
// workers in NUMA zones of 4.
type viewStub struct {
	thief   int
	workers int
	r       rng.State
}

func (v *viewStub) Thief() int { return v.thief }
func (v *viewStub) LocalPeers() []int {
	lo := v.thief / 4 * 4
	var out []int
	for w := lo; w < lo+4 && w < v.workers; w++ {
		out = append(out, w)
	}
	return out
}
func (v *viewStub) RemotePeers() []int {
	lo := v.thief / 4 * 4
	var out []int
	for w := 0; w < v.workers; w++ {
		if w < lo || w >= lo+4 {
			out = append(out, w)
		}
	}
	return out
}
func (v *viewStub) Rand() *rng.State { return &v.r }

// TestCondRandomNeverSelfInRange: over a full team, two-zone or
// single-zone, every pick names another worker of the team.
func TestCondRandomNeverSelfInRange(t *testing.T) {
	var cr CondRandom
	for _, v := range []*viewStub{
		{thief: 1, workers: 6, r: rng.New(7)},
		{thief: 5, workers: 6, r: rng.New(5)},
		{thief: 2, workers: 3, r: rng.New(9)}, // one zone: no remote peers
	} {
		for _, plocal := range []float64{0, 0.5, 1} {
			for i := 0; i < 5000; i++ {
				vic := cr.Pick(v, plocal)
				if vic == v.thief {
					t.Fatalf("thief %d of %d picked self", v.thief, v.workers)
				}
				if vic < 0 || vic >= v.workers {
					t.Fatalf("thief %d: victim %d outside [0,%d)", v.thief, vic, v.workers)
				}
			}
		}
	}
	// A solo team has no victim.
	v2 := &viewStub{thief: 0, workers: 1, r: rng.New(3)}
	if vic := cr.Pick(v2, 1); vic != -1 {
		t.Fatalf("solo pick %d", vic)
	}
}

func TestCondRandomRespectsPLocal(t *testing.T) {
	v := &viewStub{thief: 1, workers: 8, r: rng.New(11)}
	var cr CondRandom
	count := func(plocal float64, draws int) (local, remote int) {
		for i := 0; i < draws; i++ {
			vic := cr.Pick(v, plocal)
			if vic/4 == v.thief/4 {
				local++
			} else {
				remote++
			}
		}
		return
	}
	if local, remote := count(1, 3000); remote != 0 || local == 0 {
		t.Errorf("plocal=1: local=%d remote=%d", local, remote)
	}
	if local, remote := count(0, 3000); local != 0 || remote == 0 {
		t.Errorf("plocal=0: local=%d remote=%d", local, remote)
	}
	local, remote := count(0.5, 20000)
	frac := float64(local) / float64(local+remote)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("plocal=0.5: local fraction %v", frac)
	}
}

func TestPowerOfTwoPrefersShallow(t *testing.T) {
	depths := []float64{9, 0, 9, 9}
	sig := func(i int) Signals { return Signals{QueueDepth: depths[i]} }
	var p2 PowerOfTwo
	r := rng.New(13)
	wins := 0
	const draws = 4000
	for i := 0; i < draws; i++ {
		if p2.Pick(r.Uint64(), len(depths), ClassBatch, sig) == 1 {
			wins++
		}
	}
	// Shard 1 wins whenever it is drawn (p = 1 - (3/4 * 2/4) ≈ 0.44 with
	// distinct-pair redraw; well above the uniform 1/4 either way).
	if frac := float64(wins) / draws; frac < 0.35 {
		t.Fatalf("shallow shard picked %.0f%%, want > 35%%", frac*100)
	}
	// Whatever the draw and the depths, the pick names a shard in [0, n):
	// the dispatcher indexes its shard slice with it unchecked.
	for _, n := range []int{1, 2, 3, 7} {
		sig := func(i int) Signals { return Signals{QueueDepth: float64(i % 3), Running: float64(i % 2)} }
		for i := 0; i < 2000; i++ {
			if got := p2.Pick(r.Uint64(), n, Class(i%int(NumClasses)), sig); got < 0 || got >= n {
				t.Fatalf("n=%d: pick %d outside [0, %d)", n, got, n)
			}
		}
	}
}

// TestPlansNameTwoShardsInRange: a migration plan that moves
// anything names two distinct shards of the snapshot it was given; the
// pool applies it unchecked.
func TestPlansNameTwoShardsInRange(t *testing.T) {
	r := rng.New(17)
	for _, n := range []int{1, 2, 3, 7} {
		moves := 0
		for i := 0; i < 2000; i++ {
			sigs := make([]Signals, n)
			for s := range sigs {
				sigs[s] = Signals{
					QueueDepth: float64(r.Intn(6)),
					Running:    float64(r.Intn(5)),
					Capacity:   float64(1 + r.Intn(4)),
				}
			}
			if from, to, k := FillIdle(sigs); k > 0 {
				moves++
				if from == to || from < 0 || to < 0 || from >= n || to >= n {
					t.Fatalf("n=%d: FillIdle plan (%d, %d, %d) on %+v", n, from, to, k, sigs)
				}
			}
		}
		if n > 1 && moves == 0 {
			t.Fatalf("n=%d: no plan moved anything in 2000 random snapshots", n)
		}
	}
}

// TestGapHalvingBulkMove keeps the name it had under the gap-halving plan
// FillIdle replaced: one plan still moves several jobs at once, now as
// many as the cold shard has free workers rather than half the gap.
func TestGapHalvingBulkMove(t *testing.T) {
	from, to, n := FillIdle([]Signals{
		{QueueDepth: 8, Running: 2, Capacity: 2},
		{QueueDepth: 0, Running: 0, Capacity: 2},
	})
	if from != 0 || to != 1 || n != 2 {
		t.Fatalf("plan = (%d,%d,%d), want (0,1,2) — one job per free worker", from, to, n)
	}
	from, to, n = FillIdle([]Signals{
		{QueueDepth: 8, Running: 2, Capacity: 2},
		{QueueDepth: 0, Running: 0, Capacity: 4},
	})
	if from != 0 || to != 1 || n != 4 {
		t.Fatalf("plan = (%d,%d,%d), want (0,1,4) — one job per free worker", from, to, n)
	}
}

// TestGapHalvingRescue keeps the name it had under the gap-halving plan,
// whose rescue branch is now FillIdle's whole rule: a job stuck behind a
// fully busy shard moves to an idle one, and nothing else moves.
func TestGapHalvingRescue(t *testing.T) {
	// One queued job behind a fully busy shard, cold shard empty and idle.
	from, to, n := FillIdle([]Signals{
		{QueueDepth: 1, Running: 2, Capacity: 2},
		{QueueDepth: 0, Running: 0, Capacity: 2},
	})
	if from != 0 || to != 1 || n != 1 {
		t.Fatalf("rescue plan = (%d,%d,%d), want (0,1,1)", from, to, n)
	}
	// Hot shard still has an idle worker to adopt the job: no rescue.
	if _, _, n := FillIdle([]Signals{
		{QueueDepth: 1, Running: 1, Capacity: 2},
		{QueueDepth: 0, Running: 0, Capacity: 2},
	}); n != 0 {
		t.Fatalf("rescue moved %d with idle hot workers", n)
	}
	// Cold shard saturated: no rescue.
	if _, _, n := FillIdle([]Signals{
		{QueueDepth: 1, Running: 2, Capacity: 2},
		{QueueDepth: 0, Running: 2, Capacity: 2},
	}); n != 0 {
		t.Fatalf("rescue moved %d onto a saturated cold shard", n)
	}
	// Balanced: nothing to do.
	if _, _, n := FillIdle([]Signals{{}, {}}); n != 0 {
		t.Fatalf("balanced plan moved %d", n)
	}
}

// TestFillIdle pins the migration plan: only jobs stuck behind busy
// workers move, only onto workers with nothing to adopt, and never more
// than either side has.
func TestFillIdle(t *testing.T) {
	for _, tc := range []struct {
		name        string
		shards      []Signals
		from, to, n int
	}{
		{"stuck onto free", []Signals{
			{QueueDepth: 3, Running: 2, Capacity: 2},
			{Capacity: 2},
		}, 0, 1, 2},
		{"n is the stuck count", []Signals{
			{Capacity: 4},
			{QueueDepth: 1, Running: 2, Capacity: 2},
		}, 1, 0, 1},
		{"n is the free count", []Signals{
			{QueueDepth: 8, Running: 2, Capacity: 2},
			{Running: 1, Capacity: 2},
		}, 0, 1, 1},
		{"most stuck to most free", []Signals{
			{QueueDepth: 1, Running: 2, Capacity: 2},
			{Running: 1, Capacity: 2},
			{QueueDepth: 4, Running: 2, Capacity: 2},
			{Capacity: 2},
		}, 2, 3, 2},
		{"queued jobs with idle workers are not stuck", []Signals{
			{QueueDepth: 2, Capacity: 2},
			{Capacity: 2},
		}, 0, 0, 0},
		{"stuck beyond the idle workers only", []Signals{
			{QueueDepth: 5, Running: 1, Capacity: 4},
			{Capacity: 4},
		}, 0, 1, 2},
		{"two busy shards trade nothing", []Signals{
			{QueueDepth: 9, Running: 2, Capacity: 2},
			{QueueDepth: 1, Running: 2, Capacity: 2},
		}, 0, 0, 0},
		{"none onto a shard whose queue takes its idle workers", []Signals{
			{QueueDepth: 6, Running: 2, Capacity: 2},
			{QueueDepth: 1, Running: 1, Capacity: 2},
		}, 0, 0, 0},
		{"idle everywhere", []Signals{{Capacity: 2}, {Capacity: 2}}, 0, 0, 0},
		{"one shard", []Signals{{QueueDepth: 3, Running: 2, Capacity: 2}}, 0, 0, 0},
		{"no shards", nil, 0, 0, 0},
	} {
		from, to, n := FillIdle(tc.shards)
		if n != tc.n || (n > 0 && (from != tc.from || to != tc.to)) {
			t.Errorf("%s: plan = (%d,%d,%d), want (%d,%d,%d)", tc.name, from, to, n, tc.from, tc.to, tc.n)
		}
	}
}

func TestGrainOf(t *testing.T) {
	cases := []struct {
		ns   float64
		want Grain
	}{
		{0, GrainUnknown}, {100, GrainFine}, {2_000, GrainSmall},
		{20_000, GrainMid}, {200_000, GrainCoarse}, {2_000_000, GrainXCoarse},
	}
	for _, c := range cases {
		if got := GrainOf(c.ns); got != c.want {
			t.Errorf("GrainOf(%v) = %v, want %v", c.ns, got, c.want)
		}
	}
}
