package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestRestreamMatchesNewStream: a used RNG re-seeded in place draws what
// a fresh stream with that seed and label draws, whatever it drew before.
func TestRestreamMatchesNewStream(t *testing.T) {
	r := NewRNG(0)
	for i, label := range []string{"tenant-0", "tenant-1", "fsgen", ""} {
		for n := 0; n < 37*i; n++ {
			r.NormFloat64()
			r.Read(make([]byte, 3))
		}
		seed := int64(7 + i)
		r.Restream(seed, label)
		fresh := NewStream(seed, label)
		for n := 0; n < 1000; n++ {
			if a, b := r.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("stream %q draw %d: %d, fresh stream %d", label, n, a, b)
			}
			if a, b := r.Pick(n+2), fresh.Pick(n+2); a != b {
				t.Fatalf("stream %q pick %d: %d, fresh stream %d", label, n, a, b)
			}
		}
	}
}

// rngBounds are the n that checkRNGMatchesMathRand draws Intn, Int63n and
// Pick for: powers of two on both sides of MaxInt32 (the mask paths), and
// bounds just under and over it (the rejection loops of Int31n and
// Int63n, the latter rejecting about half its words at 2^62+1).
var rngBounds = []int{2, 3, 7, 1 << 10, 1000, 1 << 30, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40, 1<<62 + 1}

// checkRNGMatchesMathRand requires the streams seeded with seed to draw
// what math/rand seeded with seed draws: the source's first 2000 words
// (three passes over the 607-word register), then every helper the
// simulator calls, interleaved, and finally that Restream continues as
// NewStream does.
func checkRNGMatchesMathRand(t *testing.T, seed int64, label string) {
	t.Helper()
	var src lfgSource
	src.Seed(seed)
	ref := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < 2000; i++ {
		if a, b := src.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("seed %d: word %d is %#x, math/rand's %#x", seed, i, a, b)
		}
	}

	r, want := NewRNG(seed), rand.New(rand.NewSource(seed))
	same := func(what string, i int, got, want float64) {
		t.Helper()
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("seed %d: draw %d of %s is %v, math/rand's %v", seed, i, what, got, want)
		}
	}
	for i := 0; i < 3*len(rngBounds); i++ {
		n := rngBounds[i%len(rngBounds)]
		same("Intn", i, float64(r.Intn(n)), float64(want.Intn(n)))
		same("Pick", i, float64(r.Pick(n)), float64(want.Intn(n)))
		same("Int63n", i, float64(r.Int63n(int64(n))), float64(want.Int63n(int64(n))))
		same("Float64", i, r.Float64(), want.Float64())
		same("ExpFloat64", i, r.ExpFloat64(), want.ExpFloat64())
		same("NormFloat64", i, r.NormFloat64(), want.NormFloat64())
	}
	if got, want := r.Perm(50), want.Perm(50); !slices.Equal(got, want) {
		t.Fatalf("seed %d: Perm(50) is %v, math/rand's %v", seed, got, want)
	}

	r.Read(make([]byte, 5)) // leaves bytes of a word buffered
	r.Restream(seed, label)
	fresh := NewStream(seed, label)
	for i := 0; i < 700; i++ {
		same("Restream Uint64", i, float64(r.Uint64()), float64(fresh.Uint64()))
		same("Restream Pick", i, float64(r.Pick(i+2)), float64(fresh.Pick(i+2)))
	}
	a, b := make([]byte, 11), make([]byte, 11)
	r.Read(a)
	fresh.Read(b)
	if !slices.Equal(a, b) {
		t.Fatalf("seed %d: Read after Restream is %x, a fresh stream's %x", seed, a, b)
	}
}

// TestRNGSeedTable pins the seeds at the edges of math/rand's reduction
// of a seed to a Park–Miller state: zero and the multiples of 2^31−1
// (which all map to the fixed state 89482311), the sign flip, and the
// int64 extremes.
func TestRNGSeedTable(t *testing.T) {
	for _, seed := range []int64{
		0, 1, -1, 89482311, -89482311,
		pmM, -pmM, 2 * pmM, pmM * (math.MaxInt64 / pmM), pmM - 1, pmM + 1,
		1 << 62, -1 << 62, math.MinInt64, math.MaxInt64,
	} {
		checkRNGMatchesMathRand(t, seed, "tenant-7")
	}
}

// FuzzRNGMatchesMathRand: for any seed and stream label, NewRNG draws
// math/rand's numbers and Restream continues as NewStream.
func FuzzRNGMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 89482311, pmM, math.MinInt64, math.MaxInt64} {
		f.Add(seed, "tenant-0")
	}
	f.Fuzz(func(t *testing.T, seed int64, label string) {
		checkRNGMatchesMathRand(t, seed, label)
	})
}

// BenchmarkRNGSeed reports one seeding of math/rand's source and of
// lfgSource side by side.
func BenchmarkRNGSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("lfgSource", func(b *testing.B) {
		var src lfgSource
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
}
