package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"dynmds/internal/namespace"
)

// chainTree builds dirs directories, each at the end of its own chain of
// depth nested directories, with perDir files in each, and returns the
// files.
func chainTree(t testing.TB, dirs, depth, perDir int) []*namespace.Inode {
	t.Helper()
	tr := emptyTree()
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

// spreadTree builds files files, dealt round-robin over dirs directories
// under the root, whose IDs lie stride apart: after each one stride-1
// IDs are spent by creating and unlinking a scratch file, as a long
// run's creates and unlinks spend them. It returns the files.
func spreadTree(t testing.TB, dirs, files, stride int) []*namespace.Inode {
	t.Helper()
	tr := emptyTree()
	ds := make([]*namespace.Inode, dirs)
	for i := range ds {
		d, err := tr.Mkdir(tr.Root, fmt.Sprintf("d%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	out := make([]*namespace.Inode, files)
	for i := range out {
		d := ds[i%dirs]
		f, err := tr.Create(d, fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = f
		for k := 1; k < stride; k++ {
			scratch, err := tr.Create(d, "scratch")
			if err == nil {
				err = tr.Remove(scratch)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// indexPages counts the pages the cache's index has allocated: those in
// its directory and those on its spare list.
func indexPages(c *Cache) int {
	n := 0
	for _, k := range c.dir {
		if k != 0 {
			n++
		}
	}
	for k := c.spare; k != 0; k = c.page(k).next {
		n++
	}
	return n
}

// TestIndexPagesFollowLiveEntries cycles a cache of 64 through 100 000
// files whose IDs are spread ten apart over a namespace of over a
// million IDs, in a seeded random order, and holds the index to what the
// cache holds: never more pages than capacity plus one spare block,
// however high the IDs reach — a page is handed back when its last entry
// leaves. Pages are never freed, so the count never falls and the last
// check covers the whole run.
func TestIndexPagesFollowLiveEntries(t *testing.T) {
	const capacity = 64
	files := spreadTree(t, 1024, 100_000, 10)
	if top := files[len(files)-1].ID; top < 1_000_000 {
		t.Fatalf("highest ID %d, want a namespace of at least a million IDs", top)
	}
	c := New(capacity)
	evicts := 0
	c.OnEvict = func(*Entry) { evicts++ }
	check := func(inserts int) {
		t.Helper()
		if pages := indexPages(c); pages > capacity+pageBlock {
			t.Fatalf("after %d inserts the index holds %d pages, want at most %d", inserts, pages, capacity+pageBlock)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range rand.New(rand.NewSource(1)).Perm(len(files)) {
		if _, err := c.InsertPath(files[k], Auth, i%3 == 0); err != nil {
			t.Fatal(err)
		}
		if i%997 == 0 {
			check(i + 1)
		}
	}
	check(len(files))
	if evicts < len(files)-capacity {
		t.Fatalf("%d evictions over %d files: the cache did not cycle", evicts, len(files))
	}
}

// TestInsertPathEvictAllocFree pins the miss path of a full cache: once
// the index directory covers the namespace and evictions have stocked
// the free lists, an InsertPath that evicts allocates nothing — neither
// when the parent is cached (one directory of 4096 files) nor when the
// whole ancestor chain is missing and goes in first (64 chains of depth
// 3, 16 files each, through a cache of 48: every new directory finds its
// chain evicted), nor when the working set moves on to fresh ID ranges
// (256 directories of 64 files span 520 index pages, far more than a
// cache of 48 may keep: each directory's pages are handed back and taken
// again by the next).
func TestInsertPathEvictAllocFree(t *testing.T) {
	cases := []struct {
		name                string
		dirs, depth, perDir int
		capacity            int
		prefixInserts       bool
	}{
		{"parent cached", 1, 1, 4096, 512, false},
		{"ancestors missing", 64, 3, 16, 48, true},
		{"fresh ID ranges", 256, 1, 64, 48, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := chainTree(t, tc.dirs, tc.depth, tc.perDir)
			c := New(tc.capacity)
			evicts := 0
			c.OnEvict = func(*Entry) { evicts++ }
			next := 0
			insert := func() {
				if _, err := c.InsertPath(files[next%len(files)], Auth, next%3 == 0); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for range files {
				insert() // warm-up: one pass grows the directory and the free lists
			}
			evicts = 0
			allocs := testing.AllocsPerRun(2*len(files), insert)
			if allocs > 0 {
				t.Fatalf("InsertPath into a full cache allocated %.2f times per call, want 0", allocs)
			}
			// A full cache evicts one entry per entry it takes in, so
			// more evictions than calls means ancestors went in too.
			calls := 2*len(files) + 1 // AllocsPerRun adds a warm-up call
			if evicts < calls {
				t.Fatalf("%d evictions over %d calls: the cache was not full", evicts, calls)
			}
			if tc.prefixInserts == (evicts == calls) {
				t.Fatalf("%d evictions over %d calls; ancestors missing = %v", evicts, calls, tc.prefixInserts)
			}
			if pages := indexPages(c); pages > tc.capacity+pageBlock {
				t.Fatalf("the index holds %d pages, want at most %d", pages, tc.capacity+pageBlock)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIndexGrowthOneAlloc pins store's growth path to one allocation,
// the grown directory, with no temporary slice of the missing length
// (under -race too, where the compiler does not extend an append of a
// make in place). Each call stores one past the directory's end, on a
// page the spare list holds.
func TestIndexGrowthOneAlloc(t *testing.T) {
	c := New(1)
	e := c.newEntry()
	c.store(1, e)
	c.erase(1)
	allocs := testing.AllocsPerRun(8, func() {
		id := namespace.InodeID(len(c.dir)) << pageBits
		c.store(id, e)
		c.erase(id)
	})
	if allocs != 1 {
		t.Fatalf("growing the index directory allocated %.2f times, want 1", allocs)
	}
	if len(c.dir) < 1<<9 {
		t.Fatalf("the directory holds %d slots: it did not grow on every call", len(c.dir))
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

// TestIndexPageSize: a page is its 32 two-byte slots, its live count
// and its spare link — 68 bytes, where 32 pointers took 272.
func TestIndexPageSize(t *testing.T) {
	if s := unsafe.Sizeof(page{}); s > 68 {
		t.Fatalf("an index page is %d bytes, want at most 68", s)
	}
}

// TestIndexFillAllocsBlocks: filling a cache allocates its entry
// chunks, the index directory and one block per pageBlock pages made,
// ⌈(pages listed + page 0) / pageBlock⌉ of them, and nothing else:
// growing the index copies no page. Each of 3000 files sits in its own
// 32-ID range, so every insert lists a page. The directory is made at
// its final length first, and with it the first block, which a store
// makes before any lookup reads the directory.
func TestIndexFillAllocsBlocks(t *testing.T) {
	const files = 3000
	all := spreadTree(t, 1, files, pageSlots)
	var c *Cache
	allocs := testing.AllocsPerRun(1, func() {
		c = New(files + 1)
		c.dir = make([]uint16, all[files-1].ID>>pageBits+1)
		c.addPages()
		for _, f := range all {
			if _, err := c.InsertPath(f, Auth, false); err != nil {
				t.Fatal(err)
			}
		}
	})
	listed := 0
	for _, k := range c.dir {
		if k != 0 {
			listed++
		}
	}
	if listed < files {
		t.Fatalf("%d pages listed for %d files in their own ranges", listed, files)
	}
	blocks := (listed + 1 + pageBlock - 1) / pageBlock
	if c.blocksMade != blocks {
		t.Fatalf("%d pages listed in %d blocks, want %d", listed, c.blocksMade, blocks)
	}
	if want := 2 + c.made + blocks; allocs != float64(want) {
		t.Fatalf("filling the cache allocated %.0f times, want %d: the cache, its directory, %d entry chunks and %d page blocks", allocs, want, c.made, blocks)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsAllocs: simfsck checks every node's cache at every
// checkpoint, so a full cache of 2 000 entries is checked in at most
// two allocations, its tallies, whatever it holds.
func TestCheckInvariantsAllocs(t *testing.T) {
	const capacity = 2000
	c := New(capacity)
	for _, f := range chainTree(t, 40, 2, 60) {
		if _, err := c.InsertPath(f, Auth, f.ID%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.n != capacity {
		t.Fatalf("the cache holds %d entries, want %d", c.n, capacity)
	}
	var err error
	allocs := testing.AllocsPerRun(4, func() { err = c.CheckInvariants() })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 2 {
		t.Fatalf("CheckInvariants allocated %.0f times on a full cache, want at most 2", allocs)
	}
}

// TestMaxEntries: a cache holds MaxEntries entries, every one found by
// its ref, and panics on the next rather than wrap a ref onto a live
// entry.
func TestMaxEntries(t *testing.T) {
	files := chainTree(t, 1, 0, MaxEntries+1)
	c := New(1 << 20)
	for _, f := range files[:MaxEntries] {
		c.InsertDetached(f, Auth, false)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("entry %d of a cache went in", MaxEntries+1)
		}
	}()
	c.InsertDetached(files[MaxEntries], Auth, false)
}
