package bots

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
)

// runBench executes b on a fresh team with the given preset and verifies.
func runBench(t *testing.T, b Benchmark, preset string, workers int) {
	t.Helper()
	tm := core.MustTeam(core.Preset(preset, workers))
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.RunParallel(tm)
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatalf("%s on %s: timed out", b.Name(), preset)
	}
	if err := b.Verify(); err != nil {
		t.Fatalf("%s on %s: %v", b.Name(), preset, err)
	}
}

// Every application must produce a verified result on every preset: the
// paper's headline runtime (xgomptb), the GOMP and LOMP baselines, and both
// DLB strategies.
func TestAllBenchmarksAllRuntimes(t *testing.T) {
	for _, name := range Names {
		for _, preset := range core.PresetNames() {
			t.Run(name+"/"+preset, func(t *testing.T) {
				b, err := New(name, ScaleTest)
				if err != nil {
					t.Fatal(err)
				}
				runBench(t, b, preset, 4)
			})
		}
	}
}

// Re-running the same instance must keep verifying (benchmark harnesses
// call RunParallel repeatedly).
func TestBenchmarksRerunnable(t *testing.T) {
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			b := MustNew(name, ScaleTest)
			tm := core.MustTeam(core.Preset("xgomptb", 2))
			for i := 0; i < 3; i++ {
				b.RunParallel(tm)
				if err := b.Verify(); err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
		})
	}
}

func TestVerifyBeforeRunFails(t *testing.T) {
	for _, name := range Names {
		b := MustNew(name, ScaleTest)
		if err := b.Verify(); err == nil {
			t.Errorf("%s: Verify before RunParallel did not fail", name)
		}
	}
}

func TestRegistry(t *testing.T) {
	if _, err := New("bogus", ScaleTest); err == nil {
		t.Error("unknown name accepted")
	}
	for _, name := range Names {
		b := MustNew(name, ScaleSmall)
		if b.Name() != name {
			t.Errorf("Name() = %q, want %q", b.Name(), name)
		}
		if b.Params() == "" {
			t.Errorf("%s: empty Params", name)
		}
	}
	for _, sc := range []Scale{ScaleTest, ScaleSmall, ScaleMedium, ScaleLarge} {
		if sc.String() == "" {
			t.Error("scale must have a name")
		}
	}
}

func TestFibIterReference(t *testing.T) {
	want := []uint64{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	for n, v := range want {
		if got := fibIter(n); got != v {
			t.Errorf("fibIter(%d) = %d, want %d", n, got, v)
		}
	}
}

func TestQueensSequentialKnownCounts(t *testing.T) {
	for n := 4; n <= 9; n++ {
		if got := queensSeq(n, 0, 0); got != knownSolutions[n] {
			t.Errorf("queensSeq(%d) = %d, want %d", n, got, knownSolutions[n])
		}
	}
}

func TestQuickSortProperty(t *testing.T) {
	f := func(vals []int32) bool {
		mine := append([]int32(nil), vals...)
		quickSort(mine, 20)
		ref := append([]int32(nil), vals...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for i := range ref {
			if mine[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeqMergeProperty(t *testing.T) {
	f := func(a, b []int32) bool {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		out := make([]int32, len(a)+len(b))
		seqMerge(a, b, out)
		ref := append(append([]int32(nil), a...), b...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for i := range ref {
			if out[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLowerBound(t *testing.T) {
	a := []int32{1, 3, 3, 5, 9}
	cases := []struct {
		v    int32
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 3}, {9, 4}, {10, 5}}
	for _, c := range cases {
		if got := lowerBound(a, c.v); got != c.want {
			t.Errorf("lowerBound(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestFloorplanGeometry(t *testing.T) {
	if !overlaps(rect{0, 0, 2, 2}, rect{2, 2, 3, 3}) {
		t.Error("touching-corner rects must overlap (inclusive coords)")
	}
	if overlaps(rect{0, 0, 1, 1}, rect{2, 0, 3, 1}) {
		t.Error("adjacent rects must not overlap")
	}
	if got := boundingArea([]rect{{0, 0, 1, 1}, {2, 0, 2, 3}}, nil); got != 12 {
		t.Errorf("boundingArea = %d, want 12 (3 wide x 4 tall)", got)
	}
}

func TestUTSDeterministic(t *testing.T) {
	u := NewUTS(ScaleTest)
	a := u.countSeq(rootDescriptor(u.seed), 0)
	b := u.countSeq(rootDescriptor(u.seed), 0)
	if a != b {
		t.Fatalf("UTS tree not deterministic: %d vs %d", a, b)
	}
	if a < int64(u.b0) {
		t.Fatalf("test tree suspiciously small: %d nodes", a)
	}
	// Different seeds give different trees.
	other := &UTS{b0: u.b0, m: u.m, q: u.q, maxDepth: u.maxDepth, seed: u.seed + 1}
	if other.countSeq(rootDescriptor(other.seed), 0) == a {
		t.Error("different seeds produced identical trees")
	}
}

func TestUTSChildrenBounds(t *testing.T) {
	u := NewUTS(ScaleTest)
	d := rootDescriptor(7)
	if u.numChildren(d, 0) != u.b0 {
		t.Fatal("root fan-out must be b0")
	}
	for depth := 1; depth <= u.maxDepth; depth++ {
		k := u.numChildren(d, depth)
		if k != 0 && k != u.m {
			t.Fatalf("numChildren at depth %d: %d, want 0 or %d", depth, k, u.m)
		}
		if depth >= u.maxDepth && k != 0 {
			t.Fatalf("children below max depth")
		}
	}
}

// The binomial tree must actually be imbalanced: subtree sizes under the
// root should span at least an order of magnitude.
func TestUTSImbalance(t *testing.T) {
	u := NewUTS(ScaleTest)
	root := rootDescriptor(u.seed)
	min, max := int64(1<<62), int64(0)
	for i := 0; i < u.b0; i++ {
		n := u.countSeq(childDescriptor(root, i), 1)
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max < 10*min {
		t.Errorf("subtree sizes too uniform: min=%d max=%d", min, max)
	}
}

func TestSWScoreProperties(t *testing.T) {
	x := []byte("ARNDARND")
	// Local alignment score of x with itself is 5*len (all matches).
	if got := swScore(x, x, 4, 1); got != int32(5*len(x)) {
		t.Errorf("self score = %d, want %d", got, 5*len(x))
	}
	// Symmetry.
	y := []byte("GGGGCCCC")
	if swScore(x, y, 4, 1) != swScore(y, x, 4, 1) {
		t.Error("swScore not symmetric")
	}
	// Non-negative by definition of local alignment.
	if swScore([]byte("AAAA"), []byte("WWWW"), 4, 1) < 0 {
		t.Error("negative local score")
	}
	// A shared subsequence with a gap must beat pure mismatch:
	// x=AAAWWAAA vs z=AAAAAA aligns with one gap.
	z := []byte("AAAAAA")
	withGap := swScore([]byte("AAAWWAAA"), z, 4, 1)
	if withGap <= 15 {
		t.Errorf("gapped alignment score %d suspiciously low", withGap)
	}
}

func TestHealthScheduleIndependence(t *testing.T) {
	// Two sequential runs must agree exactly (reset correctness), and the
	// totals must satisfy conservation: treated + waiting-ish <= sick+refs.
	h := NewHealth(ScaleTest)
	h.RunSequential()
	a := collect(h.root)
	h.RunSequential()
	b := collect(h.root)
	if a != b {
		t.Fatalf("sequential runs differ: %+v vs %+v", a, b)
	}
	if a.Treated > a.Sick+a.Referred {
		t.Fatalf("conservation violated: %+v", a)
	}
}

func TestNaiveDFTImpulse(t *testing.T) {
	// DFT of a unit impulse is all ones.
	in := make([]complex128, 8)
	in[0] = 1
	out := naiveDFT(in)
	for i, v := range out {
		if real(v) < 0.999 || real(v) > 1.001 || imag(v) > 1e-9 || imag(v) < -1e-9 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestStrassenMatchesNaiveTiny(t *testing.T) {
	s := &Strassen{n: 8, cutoff: 2}
	s.a = make([]float64, 64)
	s.b = make([]float64, 64)
	s.c = make([]float64, 64)
	for i := range s.a {
		s.a[i] = float64(i % 7)
		s.b[i] = float64((i * 3) % 5)
	}
	tm := core.MustTeam(core.Preset("xgomptb", 2))
	s.RunParallel(tm)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// ParseScale must invert Scale.String for every scale and refuse
// anything else.
func TestParseScaleRoundTrip(t *testing.T) {
	for s := ScaleTest; s <= ScaleLarge; s++ {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%q) = (%v, %v), want %v", s.String(), got, err, s)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error(`ParseScale("huge") succeeded`)
	}
}
