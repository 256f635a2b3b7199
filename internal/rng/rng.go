// Package rng provides small, allocation-free pseudo-random number
// generators for per-worker use inside the runtime.
//
// The standard library's math/rand global functions take a lock, which would
// defeat the lock-less design the runtime is built around; math/rand.New
// allocates and is heavier than needed on the victim-selection fast path.
// State here is a xoshiro256** generator: 4 words of state, no allocation
// after construction, and a SplitMix64-based seeder so that distinct worker
// ids always produce well-separated streams.
package rng

// State is a xoshiro256** generator. The zero value is invalid; use New.
// State is not safe for concurrent use; the runtime embeds one per worker.
type State struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances x and returns the next SplitMix64 output. It is the
// recommended seeding procedure for xoshiro generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two distinct seeds yield
// uncorrelated streams, so callers typically pass baseSeed ^ workerID.
func New(seed uint64) State {
	var st State
	st.Seed(seed)
	return st
}

// Seed resets the generator to a state derived from seed.
func (r *State) Seed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// xoshiro must not start at the all-zero state; SplitMix64 cannot emit
	// four consecutive zeros, but guard anyway for robustness.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *State) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *State) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *State) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, debiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *State) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. p outside [0,1] saturates.
func (r *State) Bool(p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return r.Float64() < p
}
