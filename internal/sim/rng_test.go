package sim

import "testing"

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
