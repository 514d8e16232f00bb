package cache

import (
	"fmt"
	"testing"
	"unsafe"

	"dynmds/internal/namespace"
)

// chainTree builds dirs directories, each at the end of its own chain of
// depth nested directories, with perDir files in each, and returns the
// files.
func chainTree(t testing.TB, dirs, depth, perDir int) []*namespace.Inode {
	t.Helper()
	tr := namespace.NewTree()
	var files []*namespace.Inode
	for d := 0; d < dirs; d++ {
		dir := tr.Root
		for l := 0; l < depth; l++ {
			next, err := tr.Mkdir(dir, fmt.Sprintf("d%d_%d", d, l))
			if err != nil {
				t.Fatal(err)
			}
			dir = next
		}
		for f := 0; f < perDir; f++ {
			n, err := tr.Create(dir, fmt.Sprintf("f%d", f))
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, n)
		}
	}
	return files
}

// TestInsertPathEvictAllocFree pins the miss path of a full cache: once
// the ID table covers the namespace and evictions have stocked the free
// list, an InsertPath that evicts allocates nothing — neither when the
// parent is cached (one directory of 4096 files) nor when the whole
// ancestor chain is missing and goes in first (64 chains of depth 3,
// 16 files each, through a cache of 48: every new directory finds its
// chain evicted).
func TestInsertPathEvictAllocFree(t *testing.T) {
	cases := []struct {
		name                string
		dirs, depth, perDir int
		capacity            int
		prefixInserts       bool
	}{
		{"parent cached", 1, 1, 4096, 512, false},
		{"ancestors missing", 64, 3, 16, 48, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := chainTree(t, tc.dirs, tc.depth, tc.perDir)
			c := New(tc.capacity)
			next := 0
			insert := func() {
				if _, err := c.InsertPath(files[next%len(files)], Auth, next%3 == 0); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for range files {
				insert() // warm-up: one pass grows the table and the free list
			}
			before := c.Stats
			allocs := testing.AllocsPerRun(2*len(files), insert)
			if allocs > 0 {
				t.Fatalf("InsertPath into a full cache allocated %.2f times per call, want 0", allocs)
			}
			inserts, evicts := c.Stats.Inserts-before.Inserts, c.Stats.Evicts-before.Evicts
			calls := uint64(2*len(files) + 1) // AllocsPerRun adds a warm-up call
			if evicts < calls {
				t.Fatalf("%d evictions over %d calls: the cache was not full", evicts, calls)
			}
			if tc.prefixInserts == (inserts == calls) {
				t.Fatalf("%d inserts over %d calls; ancestors missing = %v", inserts, calls, tc.prefixInserts)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBenchmarkInsertPathEvictZeroAlloc runs the benchmark CI smoke-runs
// and holds it to the 0 allocs/op it documents.
func TestBenchmarkInsertPathEvictZeroAlloc(t *testing.T) {
	if res := testing.Benchmark(BenchmarkInsertPathEvict); res.AllocsPerOp() != 0 {
		t.Fatalf("BenchmarkInsertPathEvict: %d allocs/op (%d B/op), want 0", res.AllocsPerOp(), res.AllocedBytesPerOp())
	}
}

// TestEntrySizeClass keeps Entry in the 48-byte allocation size class;
// one more word moves every cached record to 64 bytes.
func TestEntrySizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Entry{}); s > 48 {
		t.Fatalf("Entry is %d bytes, past the 48-byte size class", s)
	}
}
