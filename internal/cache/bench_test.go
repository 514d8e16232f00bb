package cache

import "testing"

// BenchmarkInsertPathEvict measures the hot path of a full cache:
// insert with ancestor maintenance plus eviction. One pass over the
// files first fills the cache, its ID table and its free list, so the
// timed loop is the steady state: 0 allocs/op.
func BenchmarkInsertPathEvict(b *testing.B) {
	files := chainTree(b, 64, 1, 64)
	c := New(512)
	for _, f := range files {
		if _, err := c.InsertPath(f, Auth, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.InsertPath(files[i%len(files)], Auth, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetHit measures a cache hit with LRU touch.
func BenchmarkGetHit(b *testing.B) {
	files := chainTree(b, 4, 1, 64)
	c := New(1024)
	for _, f := range files {
		if _, err := c.InsertPath(f, Auth, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(files[i%len(files)].ID)
	}
}

// BenchmarkPrefixFraction measures the Figure 3 metric scan.
func BenchmarkPrefixFraction(b *testing.B) {
	files := chainTree(b, 32, 1, 32)
	c := New(2048)
	for _, f := range files {
		if _, err := c.InsertPath(f, Auth, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.PrefixFraction()
	}
}
