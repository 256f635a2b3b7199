package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/1000 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r := New(1)
	r.Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(5)
	const draws = 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency %v, want ~0.25", got)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	if r.Bool(-3) {
		t.Fatal("Bool(-3) returned true")
	}
	if !r.Bool(7) {
		t.Fatal("Bool(7) returned false")
	}
}

// Property: mul64 agrees with big-integer multiplication decomposed into
// 32-bit halves for arbitrary inputs.
func TestMul64Property(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify via schoolbook multiplication in 32-bit limbs.
		aLo, aHi := a&0xffffffff, a>>32
		bLo, bHi := b&0xffffffff, b>>32
		p0 := aLo * bLo
		p1 := aLo * bHi
		p2 := aHi * bLo
		p3 := aHi * bHi
		carry := (p0>>32 + p1&0xffffffff + p2&0xffffffff) >> 32
		wantLo := a * b
		wantHi := p3 + p1>>32 + p2>>32 + carry
		return lo == wantLo && hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Seed makes the stream a pure function of the seed value.
func TestSeedPurityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(192)
	}
	_ = sink
}
