package cache

import (
	"math/rand"
	"testing"

	"dynmds/internal/namespace"
)

// BenchmarkInsertPathEvict measures the hot path of a full cache:
// insert with ancestor maintenance plus eviction. One pass over the
// files first fills the cache, its index and its free lists, so the
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

// BenchmarkGetHitSpread measures cache hits on 8192 files whose IDs lie
// 37 apart over a 300k-inode namespace, in a fixed random order: the
// access pattern of a node caching a sliver of a large namespace, where
// an index sized by the highest ID spreads the hits over megabytes.
func BenchmarkGetHitSpread(b *testing.B) {
	files := spreadTree(b, 64, 8192, 37)
	c := New(16384)
	for _, f := range files {
		if _, err := c.InsertPath(f, Auth, false); err != nil {
			b.Fatal(err)
		}
	}
	ids := make([]namespace.InodeID, len(files))
	for i, k := range rand.New(rand.NewSource(1)).Perm(len(files)) {
		ids[i] = files[k].ID
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(ids[i%len(ids)])
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
