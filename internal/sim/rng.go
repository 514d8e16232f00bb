package sim

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with the random-variate helpers the simulator
// needs. Every component receives its own seeded stream so that adding a
// consumer does not perturb the draws seen by others.
type RNG struct {
	*rand.Rand
}

// NewRNG returns a deterministic stream for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{rand.New(rand.NewSource(seed))}
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
	v := math.Exp(math.Log(median) + sigma*r.NormFloat64())
	n := int(v)
	if n < min {
		n = min
	}
	if n > max {
		n = max
	}
	return n
}

// Zipf draws integers in [0, n) with a Zipf-like distribution of exponent
// s >= 1 (smaller indexes more likely). It uses rejection-free inverse
// transform over the discrete CDF only for small n; for large n it uses
// rand.Zipf. The distribution shape, not exactness, is what matters here.
type Zipf struct {
	z *rand.Zipf
	n int
}

// NewZipf constructs a Zipf sampler over [0, n).
func (r *RNG) NewZipf(s float64, n int) *Zipf {
	if n < 1 {
		n = 1
	}
	if s <= 1 {
		s = 1.01
	}
	return &Zipf{z: rand.NewZipf(r.Rand, s, 1, uint64(n-1)), n: n}
}

// Draw returns the next sample.
func (z *Zipf) Draw() int {
	if z.z == nil {
		return 0
	}
	return int(z.z.Uint64())
}

// Pick returns a uniformly random element index for a slice of length n,
// or 0 if n <= 1.
func (r *RNG) Pick(n int) int {
	if n <= 1 {
		return 0
	}
	return r.Intn(n)
}
