package bots

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rng"
)

// Strassen is the BOTS Strassen matrix-multiplication benchmark: C = A·B
// with Strassen's seven-product recursion, spawning one task per
// sub-product, and a blocked naive kernel below the cutoff. Tasks allocate
// their own temporaries, reproducing the allocation-heavy behaviour the
// paper notes for STRAS.
type Strassen struct {
	n      int
	cutoff int
	a, b   []float64
	c      []float64
	ran    bool
}

// mat is an n×n view into a row-major buffer with an explicit stride, so
// quadrant views alias the parent without copying.
type mat struct {
	d      []float64
	stride int
	n      int
}

func (m mat) at(i, j int) float64     { return m.d[i*m.stride+j] }
func (m mat) set(i, j int, v float64) { m.d[i*m.stride+j] = v }
func (m mat) quad(qi, qj int) mat {
	h := m.n / 2
	return mat{d: m.d[qi*h*m.stride+qj*h:], stride: m.stride, n: h}
}

func newMat(n int) mat { return mat{d: make([]float64, n*n), stride: n, n: n} }

// NewStrassen returns the instance for the given scale.
func NewStrassen(sc Scale) *Strassen {
	n := map[Scale]int{ScaleTest: 128, ScaleSmall: 256, ScaleMedium: 512, ScaleLarge: 1024}[sc]
	s := &Strassen{n: n, cutoff: 64}
	r := rng.New(0x57245)
	s.a = make([]float64, n*n)
	s.b = make([]float64, n*n)
	s.c = make([]float64, n*n)
	for i := range s.a {
		s.a[i] = r.Float64() - 0.5
		s.b[i] = r.Float64() - 0.5
	}
	return s
}

// Name implements Benchmark.
func (s *Strassen) Name() string { return "strassen" }

// Params implements Benchmark.
func (s *Strassen) Params() string { return fmt.Sprintf("n=%d cutoff=%d", s.n, s.cutoff) }

// naiveMul computes c = a·b with i-k-j loop order (cache friendly).
func naiveMul(a, b, c mat) {
	n := a.n
	for i := 0; i < n; i++ {
		ci := c.d[i*c.stride : i*c.stride+n]
		for j := range ci {
			ci[j] = 0
		}
		for k := 0; k < n; k++ {
			aik := a.at(i, k)
			if aik == 0 {
				continue
			}
			bk := b.d[k*b.stride : k*b.stride+n]
			for j := 0; j < n; j++ {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// matAdd computes dst = x + y.
func matAdd(x, y, dst mat) {
	for i := 0; i < x.n; i++ {
		xi := x.d[i*x.stride : i*x.stride+x.n]
		yi := y.d[i*y.stride : i*y.stride+x.n]
		di := dst.d[i*dst.stride : i*dst.stride+x.n]
		for j := range di {
			di[j] = xi[j] + yi[j]
		}
	}
}

// matSub computes dst = x - y.
func matSub(x, y, dst mat) {
	for i := 0; i < x.n; i++ {
		xi := x.d[i*x.stride : i*x.stride+x.n]
		yi := y.d[i*y.stride : i*y.stride+x.n]
		di := dst.d[i*dst.stride : i*dst.stride+x.n]
		for j := range di {
			di[j] = xi[j] - yi[j]
		}
	}
}

// strassenTask computes c = a·b, spawning the seven sub-products as tasks.
func (s *Strassen) strassenTask(w *core.Worker, a, b, c mat) {
	if a.n <= s.cutoff {
		naiveMul(a, b, c)
		return
	}
	h := a.n / 2
	a11, a12, a21, a22 := a.quad(0, 0), a.quad(0, 1), a.quad(1, 0), a.quad(1, 1)
	b11, b12, b21, b22 := b.quad(0, 0), b.quad(0, 1), b.quad(1, 0), b.quad(1, 1)
	c11, c12, c21, c22 := c.quad(0, 0), c.quad(0, 1), c.quad(1, 0), c.quad(1, 1)

	// Each product task allocates its own operands and result (BOTS-like).
	m := make([]mat, 7)
	run := func(idx int, lhs func(mat), rhs func(mat)) {
		w.Spawn(func(w *core.Worker) {
			x, y := newMat(h), newMat(h)
			lhs(x)
			rhs(y)
			m[idx] = newMat(h)
			s.strassenTask(w, x, y, m[idx])
		})
	}
	run(0, func(x mat) { matAdd(a11, a22, x) }, func(y mat) { matAdd(b11, b22, y) }) // M1
	run(1, func(x mat) { matAdd(a21, a22, x) }, func(y mat) { copyMat(b11, y) })     // M2
	run(2, func(x mat) { copyMat(a11, x) }, func(y mat) { matSub(b12, b22, y) })     // M3
	run(3, func(x mat) { copyMat(a22, x) }, func(y mat) { matSub(b21, b11, y) })     // M4
	run(4, func(x mat) { matAdd(a11, a12, x) }, func(y mat) { copyMat(b22, y) })     // M5
	run(5, func(x mat) { matSub(a21, a11, x) }, func(y mat) { matAdd(b11, b12, y) }) // M6
	run(6, func(x mat) { matSub(a12, a22, x) }, func(y mat) { matAdd(b21, b22, y) }) // M7
	w.TaskWait()

	for i := 0; i < h; i++ {
		for j := 0; j < h; j++ {
			m1, m2, m3 := m[0].at(i, j), m[1].at(i, j), m[2].at(i, j)
			m4, m5, m6, m7 := m[3].at(i, j), m[4].at(i, j), m[5].at(i, j), m[6].at(i, j)
			c11.set(i, j, m1+m4-m5+m7)
			c12.set(i, j, m3+m5)
			c21.set(i, j, m2+m4)
			c22.set(i, j, m1-m2+m3+m6)
		}
	}
}

func copyMat(src, dst mat) {
	for i := 0; i < src.n; i++ {
		copy(dst.d[i*dst.stride:i*dst.stride+src.n], src.d[i*src.stride:i*src.stride+src.n])
	}
}

// RunParallel implements Benchmark.
func (s *Strassen) RunParallel(tm *core.Team) {
	a := mat{d: s.a, stride: s.n, n: s.n}
	b := mat{d: s.b, stride: s.n, n: s.n}
	c := mat{d: s.c, stride: s.n, n: s.n}
	tm.Run(func(w *core.Worker) { s.strassenTask(w, a, b, c) })
	s.ran = true
}

// RunTask implements TaskRunner: the same computation as one job body.
func (s *Strassen) RunTask(w *core.Worker) {
	a := mat{d: s.a, stride: s.n, n: s.n}
	b := mat{d: s.b, stride: s.n, n: s.n}
	c := mat{d: s.c, stride: s.n, n: s.n}
	w.TaskGroup(func(w *core.Worker) { s.strassenTask(w, a, b, c) })
	s.ran = true
}

// RunSequential implements Benchmark.
func (s *Strassen) RunSequential() {
	a := mat{d: s.a, stride: s.n, n: s.n}
	b := mat{d: s.b, stride: s.n, n: s.n}
	out := newMat(s.n)
	naiveMul(a, b, out)
}

// Verify implements Benchmark: compare against the naive product on
// sampled rows (full comparison at test scale).
func (s *Strassen) Verify() error {
	if !s.ran {
		return fmt.Errorf("strassen: Verify before RunParallel")
	}
	a := mat{d: s.a, stride: s.n, n: s.n}
	b := mat{d: s.b, stride: s.n, n: s.n}
	rows := s.n
	if s.n > 256 {
		rows = 16 // sampled verification at large scales
	}
	tol := 1e-6 * float64(s.n)
	for ri := 0; ri < rows; ri++ {
		i := ri * (s.n / rows)
		for j := 0; j < s.n; j++ {
			var want float64
			for k := 0; k < s.n; k++ {
				want += a.at(i, k) * b.at(k, j)
			}
			got := s.c[i*s.n+j]
			if math.Abs(got-want) > tol {
				return fmt.Errorf("strassen: c[%d,%d] = %g, want %g", i, j, got, want)
			}
		}
	}
	return nil
}
