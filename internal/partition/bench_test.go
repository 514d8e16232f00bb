package partition

import (
	"testing"

	"dynmds/internal/fsgen"
	"dynmds/internal/namespace"
)

func benchSnapshot(b *testing.B) *fsgen.Snapshot {
	b.Helper()
	cfg := fsgen.Default()
	cfg.Users = 50
	fz, err := fsgen.GenerateFrozen(cfg)
	if err != nil {
		b.Fatal(err)
	}
	snap := fz.Thaw()
	return snap
}

func deepFiles(snap *fsgen.Snapshot, n int) []*namespace.Inode {
	var files []*namespace.Inode
	snap.Tree.Walk(func(ino *namespace.Inode) bool {
		if !ino.IsDir() && len(files) < n {
			files = append(files, ino)
		}
		return len(files) < n
	})
	return files
}

// BenchmarkPathHash measures full-path hashing (every FileHash/LH
// authority lookup pays this).
func BenchmarkPathHash(b *testing.B) {
	snap := benchSnapshot(b)
	files := deepFiles(snap, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PathHash(files[i%len(files)])
	}
}

// BenchmarkSubtreeAuthorityMemoized measures the epoch-memoized lookup
// (the common case on every request).
func BenchmarkSubtreeAuthorityMemoized(b *testing.B) {
	snap := benchSnapshot(b)
	files := deepFiles(snap, 1024)
	tab := NewSubtreeTable(16)
	InitialPartition(tab, snap.Tree, 2)
	for _, f := range files {
		tab.Authority(f) // warm memo
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.Authority(files[i%len(files)])
	}
}

// authSink keeps the compiler from dropping a benchmarked lookup.
var authSink int

// BenchmarkSubtreeAuthorityStrategy measures the strategy's lookup —
// the parent's hashed-directory check, then the memoized table — the
// one every MDS and the bench kernel call.
func BenchmarkSubtreeAuthorityStrategy(b *testing.B) {
	snap := benchSnapshot(b)
	files := deepFiles(snap, 1024)
	s := NewStaticSubtree(16, snap.Tree, 2)
	for _, f := range files {
		s.Authority(f) // warm memo
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		authSink = s.Authority(files[i%len(files)])
	}
}

// BenchmarkSubtreeAuthorityColdEpoch measures lookup cost right after a
// partition change invalidates all memoization.
func BenchmarkSubtreeAuthorityColdEpoch(b *testing.B) {
	snap := benchSnapshot(b)
	files := deepFiles(snap, 1024)
	tab := NewSubtreeTable(16)
	InitialPartition(tab, snap.Tree, 2)
	root := snap.Homes[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			_ = tab.Delegate(root, i%16) // bump epoch
		}
		_ = tab.Authority(files[i%len(files)])
	}
}
