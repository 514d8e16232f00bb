package sim

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with the random-variate helpers the simulator
// needs. Every component receives its own seeded stream so that adding a
// consumer does not perturb the draws seen by others.
//
// The source is lfgSource, math/rand's own generator seeded without its
// division chain, so every stream draws exactly what rand.NewSource with
// the same seed draws; *rand.Rand still derives Float64, ExpFloat64,
// NormFloat64 and Intn from it.
type RNG struct {
	*rand.Rand
	src *lfgSource
}

// NewRNG returns a deterministic stream for the given seed.
func NewRNG(seed int64) *RNG {
	src := new(lfgSource)
	src.Seed(seed)
	return &RNG{rand.New(src), src}
}

// Stream derives an independent child stream. The derivation mixes the
// label into the parent seed so that streams with different labels are
// decorrelated.
func NewStream(seed int64, label string) *RNG {
	return NewRNG(streamSeed(seed, label))
}

// Restream re-seeds r in place to the stream NewStream(seed, label)
// starts: the same draws without a fresh 4.9 KB source, for a caller
// that uses many short streams one after another.
func (r *RNG) Restream(seed int64, label string) {
	r.Seed(streamSeed(seed, label))
}

func streamSeed(seed int64, label string) int64 {
	h := uint64(seed)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 1099511628211 // FNV-1a step
	}
	return int64(h & math.MaxInt64)
}

// Exp returns an exponentially distributed duration with the given mean.
func (r *RNG) Exp(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	d := Time(r.ExpFloat64() * float64(mean))
	if d < 0 {
		d = 0
	}
	return d
}

// LogNormalInt returns a draw from a log-normal distribution with the
// given median and sigma, clamped to [min, max].
func (r *RNG) LogNormalInt(median float64, sigma float64, min, max int) int {
	v := math.Exp(math.Log(median) + float64(sigma*r.NormFloat64()))
	n := int(v)
	if n < min {
		n = min
	}
	if n > max {
		n = max
	}
	return n
}

// Pick returns a uniformly random element index for a slice of length n,
// or 0 if n <= 1. It draws what Intn(n) draws: up to MaxInt32 it is
// Int31n's power-of-two mask and rejection loop on the concrete source,
// without an interface call per word.
func (r *RNG) Pick(n int) int {
	if n <= 1 {
		return 0
	}
	if n > math.MaxInt32 {
		return r.Intn(n)
	}
	n32 := int32(n)
	if n32&(n32-1) == 0 {
		return int(int32(r.src.Int63()>>32) & (n32 - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n32))
	v := int32(r.src.Int63() >> 32)
	for v > max {
		v = int32(r.src.Int63() >> 32)
	}
	return int(v % n32)
}

// lfgSource is math/rand's generator (the additive lagged-Fibonacci
// register of Mitchell and Reeds: 607 words, tap 273) with a faster Seed
// that fills the register with the same words.
type lfgSource struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	// Park–Miller, the sequence math/rand seeds the register from:
	// x' = pmA·x mod pmM, and the powers of pmA that Seed jumps by.
	pmM   = 1<<31 - 1
	pmA   = 48271
	pmA2  = pmA * pmA % pmM
	pmA3  = pmA2 * pmA % pmM
	pmA5  = pmA3 * pmA2 % pmM
	pmA10 = pmA5 * pmA5 % pmM
	pmA20 = pmA10 * pmA10 % pmM
)

// pmMul returns a·b mod 2^31−1 for a, b in [1, 2^31−1) by folding the
// 62-bit product at bit 31 (2^31 ≡ 1), where math/rand's seedrand takes
// Schrage's division steps for one factor of pmA. The fold is at most
// 2·pmM, and equals it only for a product ≡ 0, which a prime modulus
// rules out, so one subtraction reduces it.
func pmMul(a, b uint64) uint64 {
	p := a * b
	p = p&pmM + p>>31
	if p >= pmM {
		p -= pmM
	}
	return p
}

// Seed fills the register as math/rand's rngSource.Seed does. That
// seeding steps Park–Miller 20 times, then 3 times per word, taking each
// word from the three values x·A, x·A², x·A³ of one x; here the 20 steps
// are one multiply by A^20 and the three values are independent
// multiplies of x, so the dependent chain is one multiply by A³ per word
// instead of three Schrage steps.
func (s *lfgSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= pmM
	if seed < 0 {
		seed += pmM
	}
	if seed == 0 {
		seed = 89482311
	}
	x := pmMul(uint64(seed), pmA20)
	for i := range s.vec {
		a, b, c := pmMul(x, pmA), pmMul(x, pmA2), pmMul(x, pmA3)
		s.vec[i] = int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ rngCooked[i]
		x = c
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *lfgSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit value.
func (s *lfgSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
