package metrics

import (
	"testing"

	"dynmds/internal/sim"
)

// TestLatHistBucketsContiguous checks the index function is monotone
// and the bound function inverts it: every value maps into a bucket
// whose bound is >= the value, and bucket indexes never decrease.
func TestLatHistBucketsContiguous(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 2, 15, 16, 17, 31, 32, 63, 64, 100, 1023, 1024,
		1 << 20, 1<<20 + 1, 1 << 40, 1<<63 - 1, 1 << 63} {
		idx := latIndex(v)
		if idx < prev {
			t.Fatalf("index not monotone at %d: %d < %d", v, idx, prev)
		}
		if idx >= latBuckets {
			t.Fatalf("index %d out of range for %d", idx, v)
		}
		if b := latBound(idx); uint64(b) < v {
			t.Fatalf("bound(%d)=%d < value %d", idx, b, v)
		}
		prev = idx
	}
	// Exhaustive small-range check: bound is the LAST value in its bucket.
	for v := uint64(0); v < 4096; v++ {
		idx := latIndex(v)
		if latIndex(uint64(latBound(idx))) != idx {
			t.Fatalf("bound(%d) escapes its bucket", idx)
		}
		if latIndex(uint64(latBound(idx))+1) == idx {
			t.Fatalf("bound(%d) is not the bucket's last value", idx)
		}
	}
}

// TestLatHistQuantiles checks quantile bounds against a known
// distribution, within the 1/16 relative bucket error.
func TestLatHistQuantiles(t *testing.T) {
	h := NewLatHist()
	// 1000 observations: 1..1000 µs.
	for i := 1; i <= 1000; i++ {
		h.Observe(sim.Time(i))
	}
	if h.N() != 1000 {
		t.Fatalf("n = %d", h.N())
	}
	check := func(q, want float64) {
		got := float64(h.Quantile(q))
		if got < want || got > want*(1+1.0/8) {
			t.Errorf("q%.3f = %.0f, want in [%.0f, %.0f]", q, got, want, want*1.125)
		}
	}
	check(0.5, 500)
	check(0.99, 990)
	check(0.999, 999)
	if h.Quantile(1.0) < 1000 {
		t.Errorf("q1.0 = %v < max", h.Quantile(1.0))
	}
}

// TestLatHistMerge checks lane merging matches a single histogram fed
// the union — quantiles, and the mean to the bit in either merge order,
// which a running floating-point mean would not give.
func TestLatHistMerge(t *testing.T) {
	a, b, all := NewLatHist(), NewLatHist(), NewLatHist()
	for i := 0; i < 500; i++ {
		v := sim.Time(i * 7 % 3000)
		a.Observe(v)
		all.Observe(v)
	}
	for i := 0; i < 300; i++ {
		v := sim.Time(i * 13 % 90000)
		b.Observe(v)
		all.Observe(v)
	}
	ba := NewLatHist()
	ba.Merge(b)
	ba.Merge(a)
	a.Merge(b)
	if m := all.Mean(); m <= 0 || a.Mean() != m || ba.Mean() != m {
		t.Fatalf("mean: union %v, a+b %v, b+a %v", m, a.Mean(), ba.Mean())
	}
	if a.N() != all.N() {
		t.Fatalf("merged n = %d, want %d", a.N(), all.N())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("q%.3f: merged %v != union %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

// TestLatHistEmptyAndClamp covers edge cases: empty histogram, negative
// observation clamping, reset.
func TestLatHistEmptyAndClamp(t *testing.T) {
	h := NewLatHist()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty quantile or mean not 0")
	}
	h.Observe(-5)
	if h.N() != 1 || h.Quantile(1) != 0 {
		t.Fatal("negative observation must clamp to bucket 0")
	}
	h.Reset()
	if h.N() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("reset did not clear")
	}
}

// TestLatHistObserveAllocFree pins the hot path at zero allocations.
func TestLatHistObserveAllocFree(t *testing.T) {
	h := NewLatHist()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			h.Observe(sim.Time(i * 131))
		}
	})
	if allocs > 0 {
		t.Fatalf("Observe allocated %.2f times per 64 observations", allocs)
	}
}
