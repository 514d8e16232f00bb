package namespace

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// genBase builds a deterministic pseudo-random namespace the way fsgen
// does — mkdirs and creates only — twice over from the same calls: as a
// tree grown on an empty base, the oracle, and through a Builder.
func genBase(t *testing.T, seed int64, dirs, filesPerDir int) (*Tree, *Frozen) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tr, b := emptyTree(), NewBuilder()
	all := []*Inode{tr.Root}
	for d := 0; d < dirs; d++ {
		parent := all[r.Intn(len(all))]
		nd, err := tr.Mkdir(parent, "d"+strconv.Itoa(d))
		if err != nil {
			t.Fatal(err)
		}
		if id := b.Mkdir(parent.ID, nd.name); id != nd.ID || b.Depth(id) != nd.Depth() {
			t.Fatalf("builder mkdir %s: id %d, depth %d", nd, id, b.Depth(id))
		}
		all = append(all, nd)
	}
	for i, d := range all {
		for f := 0; f < filesPerDir; f++ {
			nf, err := tr.Create(d, fmt.Sprintf("f%d_%d", i, f))
			if err != nil {
				t.Fatal(err)
			}
			if id := b.Create(d.ID, nf.name); id != nf.ID {
				t.Fatalf("builder create %s: id %d", nf, id)
			}
		}
	}
	f, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return tr, f
}

// walkOrder collects every inode in deterministic walk order.
func walkOrder(tr *Tree) []*Inode {
	var out []*Inode
	tr.Walk(func(n *Inode) bool {
		out = append(out, n)
		return true
	})
	return out
}

// requireSameShape asserts two trees are structurally identical:
// same walk order, IDs, names, kinds, modes, sizes, subtree counts, and
// same child ordering.
func requireSameShape(t *testing.T, want, got *Tree) {
	t.Helper()
	a, b := walkOrder(want), walkOrder(got)
	if len(a) != len(b) {
		t.Fatalf("tree sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Kind != y.Kind || x.Mode != y.Mode || want.Size(x) != got.Size(y) ||
			x.name != y.name || x.SubtreeInodes() != y.SubtreeInodes() {
			t.Fatalf("inode %d differs: %+v vs %+v", i, x, y)
		}
		if x.NumChildren() != y.NumChildren() {
			t.Fatalf("inode %s child count differs: %d vs %d", x, x.NumChildren(), y.NumChildren())
		}
		for c := 0; c < x.NumChildren(); c++ {
			if x.Child(c).ID != y.Child(c).ID {
				t.Fatalf("inode %s child %d differs: %d vs %d", x, c, x.Child(c).ID, y.Child(c).ID)
			}
		}
	}
	if want.Len() != got.Len() || want.NumFiles != got.NumFiles || want.NumDirs != got.NumDirs {
		t.Fatalf("counts differ: len %d/%d files %d/%d dirs %d/%d",
			want.Len(), got.Len(), want.NumFiles, got.NumFiles, want.NumDirs, got.NumDirs)
	}
}

// mutateBoth applies one identical pseudo-random mutation to both trees,
// selecting targets by walk-order index so the choice is tree-agnostic.
// It requires both trees to succeed or fail together.
func mutateBoth(t *testing.T, r *rand.Rand, legacy, overlay *Tree, seq int) {
	t.Helper()
	la, oa := walkOrder(legacy), walkOrder(overlay)
	if len(la) != len(oa) {
		t.Fatalf("walk lengths diverged: %d vs %d", len(la), len(oa))
	}
	pickDir := func(inos []*Inode, i int) *Inode {
		for off := 0; off < len(inos); off++ {
			if n := inos[(i+off)%len(inos)]; n.IsDir() {
				return n
			}
		}
		return nil
	}
	i := r.Intn(len(la))
	j := r.Intn(len(la))
	name := "m" + strconv.Itoa(seq)
	var err1, err2 error
	switch op := r.Intn(6); op {
	case 0: // create file
		d1, d2 := pickDir(la, i), pickDir(oa, i)
		_, err1 = legacy.Create(d1, name)
		_, err2 = overlay.Create(d2, name)
	case 1: // mkdir
		d1, d2 := pickDir(la, i), pickDir(oa, i)
		_, err1 = legacy.Mkdir(d1, name)
		_, err2 = overlay.Mkdir(d2, name)
	case 2: // remove
		err1 = legacy.Remove(la[i])
		err2 = overlay.Remove(oa[i])
	case 3: // rename into another directory
		d1, d2 := pickDir(la, j), pickDir(oa, j)
		err1 = legacy.Rename(la[i], d1, name)
		err2 = overlay.Rename(oa[i], d2, name)
	case 4: // chmod
		legacy.Chmod(la[i], la[i].Mode^0o022)
		overlay.Chmod(oa[i], oa[i].Mode^0o022)
	case 5: // size update
		legacy.SetSize(la[i], legacy.Size(la[i])+int64(seq))
		overlay.SetSize(oa[i], overlay.Size(oa[i])+int64(seq))
	}
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("op %d errors diverged: legacy=%v overlay=%v", seq, err1, err2)
	}
}

// TestOverlayEquivalence drives a frozen-base overlay and the original
// eagerly built tree through an identical mutation sequence and requires
// identical structure, ordering, and invariants throughout.
func TestOverlayEquivalence(t *testing.T) {
	legacy, frozen := genBase(t, 7, 40, 4)
	overlay := NewOverlay(frozen)
	requireSameShape(t, legacy, overlay)

	r := rand.New(rand.NewSource(42))
	for seq := 0; seq < 400; seq++ {
		mutateBoth(t, r, legacy, overlay, seq)
		if seq%50 == 0 {
			requireSameShape(t, legacy, overlay)
		}
	}
	requireSameShape(t, legacy, overlay)
	if err := legacy.CheckInvariants(); err != nil {
		t.Fatalf("legacy invariants: %v", err)
	}
	if err := overlay.CheckInvariants(); err != nil {
		t.Fatalf("overlay invariants: %v", err)
	}

	// Path lookups resolve identically.
	for _, n := range walkOrder(legacy) {
		got, err := overlay.Lookup(n.Path())
		if err != nil {
			t.Fatalf("overlay lookup %s: %v", n.Path(), err)
		}
		if got.ID != n.ID {
			t.Fatalf("overlay lookup %s: got %d want %d", n.Path(), got.ID, n.ID)
		}
	}
}

// TestBuilderRefusals: every check Tree.add makes is made by the
// builder — as a record is added where the record shows it, by Freeze
// for a name used twice. The first refusal sticks: the call and every
// later one return 0 and append nothing, and Freeze hands back the
// error and no snapshot, so nothing half-built gets out.
func TestBuilderRefusals(t *testing.T) {
	for _, tc := range []struct {
		what   string
		parent InodeID // 0: none; 2 is /d, 3 is /d/f
		name   string
		errHas string
	}{
		{"empty name", 2, "", `invalid name ""`},
		{"name with a slash", 2, "a/b", `invalid name "a/b"`},
		{"parent 0", 0, "x", `parent 0 of "x" does not exist`},
		{"parent not yet created", 4, "x", `parent 4 of "x" does not exist`},
		{"file as parent", 3, "x", "/d/f is not a directory"},
	} {
		for _, kind := range []Kind{Dir, File} {
			b := NewBuilder()
			dir := b.Mkdir(b.Root(), "d")
			if file := b.Create(dir, "f"); dir != 2 || file != 3 {
				t.Fatalf("ids %d, %d, want 2, 3", dir, file)
			}
			add := b.Mkdir
			if kind == File {
				add = b.Create
			}
			if id := add(tc.parent, tc.name); id != 0 {
				t.Fatalf("%s (%s): got id %d, want 0", tc.what, kind, id)
			}
			if id := b.Create(dir, "later"); id != 0 || b.n != 3 {
				t.Fatalf("%s (%s): a call after the refusal got id %d, builder holds %d records", tc.what, kind, id, b.n)
			}
			f, err := b.Freeze()
			if f != nil || err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("%s (%s): snapshot %v, err %v, want an error holding %q", tc.what, kind, f, err, tc.errHas)
			}
		}
	}

	// A duplicate shows where the name index is sorted. The error names
	// the directory and the entry.
	b := NewBuilder()
	dir := b.Mkdir(b.Root(), "d")
	b.Create(dir, "a")
	b.Create(dir, "f")
	b.Create(dir, "b")
	b.Mkdir(dir, "f")
	f, err := b.Freeze()
	if f != nil || err == nil || !strings.Contains(err.Error(), `/d already contains "f"`) {
		t.Fatalf("duplicate entry: snapshot %v, err %v", f, err)
	}
}

// TestFnodeSize: a frozen record stays in the 40-byte size class.
func TestFnodeSize(t *testing.T) {
	if size := unsafe.Sizeof(fnode{}); size != 40 {
		t.Fatalf("fnode is %d bytes, want 40", size)
	}
}

// TestInodeLayout: a file pays only for what a file has — 48 bytes of
// its own, its child position in what was padding, and the 32-byte tag
// record the layers above keep in it, with no size word (Tree.Size);
// a directory's extra state is one 48-byte record with no name index,
// and a created page's 64 inodes are 5 120 bytes, which the 5 376-byte
// size class holds with 4 B an inode to spare.
func TestInodeLayout(t *testing.T) {
	if size := unsafe.Sizeof(Inode{}); size != 80 {
		t.Errorf("Inode is %d bytes, want 80", size)
	}
	if size := unsafe.Sizeof(Tags{}); size != 32 {
		t.Errorf("Tags is %d bytes, want 32", size)
	}
	if size := unsafe.Sizeof(dirState{}); size > 48 {
		t.Errorf("dirState is %d bytes, want <= 48", size)
	}
	if size := unsafe.Sizeof([pageIDs]Inode{}); size != 5120 {
		t.Errorf("a created page's inodes are %d bytes, want 5120", size)
	}
}

// TestBuilderAllocBudget: the builder allocates per chunk, never per
// inode, and Freeze a fixed number of objects — the snapshot and its
// two arrays — whatever the directory count: 1 000 directories of 4
// names cost it what 4 directories of 1 000 names do.
func TestBuilderAllocBudget(t *testing.T) {
	names := make([]string, 1000)
	for i := range names {
		names[i] = "f" + strconv.Itoa(i)
	}
	build := func(dirs, files int) *Builder {
		b := NewBuilder()
		for d := 0; d < dirs; d++ {
			dir := b.Mkdir(b.Root(), names[d])
			for _, name := range names[:files] {
				b.Create(dir, name)
			}
		}
		return b
	}
	// The first GC cycle starts the runtime's mark workers, allocations a
	// measurement would otherwise see when it happens to run then.
	runtime.GC()
	if allocs := testing.AllocsPerRun(5, func() { build(4, 1000) }); allocs > 12 {
		t.Errorf("building 4 005 inodes took %.0f mallocs, want <= 12", allocs)
	}
	freeze := func(b *Builder) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := b.Freeze(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if wide, deep := freeze(build(1000, 4)), freeze(build(4, 1000)); wide != deep || wide > 3 {
		t.Errorf("Freeze took %.0f mallocs over 1 000 directories, %.0f over 4; want equal and <= 3", wide, deep)
	}
}

// TestBuilderInodeLimit: the name index keys are 32 bits, so the
// builder refuses the 2³²nd inode, and Freeze reports it. White-box: the
// count is set, not reached.
func TestBuilderInodeLimit(t *testing.T) {
	b := NewBuilder()
	b.n = math.MaxUint32
	if id := b.Create(b.Root(), "over"); id != 0 {
		t.Fatalf("inode 2³² got id %d", id)
	}
	f, err := b.Freeze()
	if f != nil || err == nil || !strings.Contains(err.Error(), `"over" would be inode 4294967296`) {
		t.Fatalf("inode 2³²: snapshot %v, err %v", f, err)
	}
}

// TestOverlayTombstones verifies a removed base inode cannot be
// resurrected through ByID, while untouched base inodes stay reachable.
func TestOverlayTombstones(t *testing.T) {
	_, f := genBase(t, 3, 10, 3)
	ov := NewOverlay(f)
	var file *Inode
	ov.Walk(func(n *Inode) bool {
		if !n.IsDir() && file == nil {
			file = n
		}
		return true
	})
	id := file.ID
	if err := ov.Remove(file); err != nil {
		t.Fatal(err)
	}
	if _, ok := ov.ByID(id); ok {
		t.Fatal("removed base inode resurrected by ByID")
	}
	// A different overlay over the same base still sees it.
	if _, ok := NewOverlay(f).ByID(id); !ok {
		t.Fatal("fresh overlay missing base inode")
	}
	if got := ov.Len(); got != f.NumInodes()-1 {
		t.Fatalf("Len after removal = %d, want %d", got, f.NumInodes()-1)
	}
}

// TestOverlayLazyNameIndex checks the slab overlay's laziness contract:
// thawing is a flat bulk copy (constant allocation count, no per-inode or
// per-directory allocations), the frozen base's sorted index answers
// every lookup of an entry still at its frozen place, and the overlay
// keeps only its differences: a directory's first structural mutation
// marks that directory alone, and only the entry that moved joins the
// moved set.
func TestOverlayLazyNameIndex(t *testing.T) {
	base, f := genBase(t, 5, 30, 10)

	// Thawing allocates O(1) objects regardless of snapshot size: the
	// Tree, the inode slab, the directory-record slab, and the child
	// backing array. A per-inode or per-directory allocation would scale
	// with the ~330-inode snapshot and blow well past this bound.
	if allocs := testing.AllocsPerRun(5, func() { _ = NewOverlay(f) }); allocs > 12 {
		t.Fatalf("NewOverlay allocates %.0f objects, want O(1) (<= 12)", allocs)
	}

	ov := NewOverlay(f)
	if len(ov.created.pages) != 0 || ov.moved.n != 0 || ov.moved.dir != nil {
		t.Fatalf("fresh overlay has %d created, %d moved entries, want none (base IDs resolve via slab)", len(ov.created.pages), ov.moved.n)
	}
	countMutated := func() (lazy, mutated int) {
		ov.Walk(func(n *Inode) bool {
			if n.IsDir() && n.NumChildren() > 0 {
				if n.dir.mutated {
					mutated++
				} else {
					lazy++
				}
			}
			return true
		})
		return
	}
	lazyBefore, mutatedBefore := countMutated()
	if mutatedBefore != 0 {
		t.Fatalf("fresh overlay has %d mutated directories, want 0", mutatedBefore)
	}

	// Read-only resolution — ByID, Path, LookupChild — works through the
	// shared base index and marks nothing.
	deepest, depth := ov.Root, -1
	base.Walk(func(n *Inode) bool {
		if !n.IsDir() && n.Depth() > depth {
			deepest, depth = n, n.Depth()
		}
		return true
	})
	n, ok := ov.ByID(deepest.ID)
	if !ok {
		t.Fatal("ByID failed")
	}
	if n.Path() != deepest.Path() {
		t.Fatalf("path mismatch: %s vs %s", n.Path(), deepest.Path())
	}
	if got, err := ov.Lookup(deepest.Path()); err != nil || got.ID != deepest.ID {
		t.Fatalf("overlay lookup %s: %v, %v", deepest.Path(), got, err)
	}
	if l, m := countMutated(); l != lazyBefore || m != 0 {
		t.Fatalf("read-only access mutated %d directories", m)
	}

	// The first structural mutation of a directory marks exactly that
	// directory; siblings stay lazy, and only the new entry is moved.
	dir := n.Parent()
	if _, err := ov.Create(dir, "fresh"); err != nil {
		t.Fatal(err)
	}
	if !dir.dir.mutated || ov.moved.n != 1 {
		t.Fatalf("mutated directory marked %v, %d moved entries (want 1)", dir.dir.mutated, ov.moved.n)
	}
	if got, ok := dir.LookupChild("fresh"); !ok || got.Name() != "fresh" {
		t.Fatal("moved set missing new child")
	}
	if got, ok := dir.LookupChild(n.Name()); !ok || got != n {
		t.Fatal("base index lost pre-existing child")
	}
	if l, m := countMutated(); m != 1 || l != lazyBefore-1 {
		t.Fatalf("after one mutation: %d mutated (want 1), %d lazy (want %d)", m, l, lazyBefore-1)
	}
}

// TestCheckInvariantsLeavesLazy: checking a fresh overlay marks no
// directory mutated and counts no read-through lookup — the check reads
// the base index directly — yet a corrupted lazy child list is still
// reported.
func TestCheckInvariantsLeavesLazy(t *testing.T) {
	_, f := genBase(t, 5, 30, 10)
	ov := NewOverlay(f)
	lazy := func() (n int) {
		ov.Walk(func(in *Inode) bool {
			if in.IsDir() && in.NumChildren() > 0 && !in.dir.mutated {
				n++
			}
			return true
		})
		return n
	}
	before := lazy()
	if err := ov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if after := lazy(); after != before || before == 0 {
		t.Fatalf("lazy directories %d before the check, %d after", before, after)
	}
	if l, m := ov.LazyStats(); l != 0 || m != 0 {
		t.Fatalf("the check counted %d read-through lookups, %d misses", l, m)
	}

	var dir *Inode
	ov.Walk(func(n *Inode) bool {
		if dir == nil && n.IsDir() && !n.dir.mutated && n.NumChildren() > 1 {
			dir = n
		}
		return true
	})
	kids := dir.Children()
	for _, tc := range []struct {
		what    string
		corrupt func() (undo func())
		errHas  string
	}{
		{"an entry renamed behind the index", func() func() {
			c := kids[0]
			old := c.name
			c.name += "~"
			return func() { c.name = old }
		}, "child index broken"},
		{"an entry that is not a child", func() func() {
			old := kids[1]
			kids[1] = ov.Root
			return func() { kids[1] = old }
		}, "wrong parent"},
	} {
		undo := tc.corrupt()
		err := ov.CheckInvariants()
		undo()
		if err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("%s: err %v, want one holding %q", tc.what, err, tc.errHas)
		}
		if dir.dir.mutated {
			t.Fatalf("%s: the check mutated the corrupted directory", tc.what)
		}
	}
	if err := ov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSortedNameIndex: an unmutated directory's LookupChild — a binary search
// of the base's name-sorted segment — agrees with a scan of Children()
// for every present name and for absent ones before the first, between
// neighbours, after the last and in an empty directory, whatever order
// the builder received the names in. A name given twice is refused.
func TestSortedNameIndex(t *testing.T) {
	universe := []string{"Z", "a", "a0", "ab", "b", "lib.so", "é", "日本", "~", "0", "A", "aa", "a\x00", "\xff"}
	probes := []string{"", "\x00", "Y", "Za", "a00", "a0\x00", "lib", "lib.s", "lib.sox", "z", "e", "\xff\xff", "日", "日本語"}
	probes = append(probes, universe...)
	scan := func(d *Inode, name string) (*Inode, bool) {
		for _, c := range d.Children() {
			if c.name == name {
				return c, true
			}
		}
		return nil, false
	}
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		b := NewBuilder()
		top := b.Mkdir(b.Root(), "d")
		// Directory k holds a random subset of the universe; some are
		// empty, one holds everything.
		var dirs []InodeID
		for k := 0; k < 6; k++ {
			dir := b.Mkdir(top, "e"+strconv.Itoa(k))
			dirs = append(dirs, dir)
			for _, i := range r.Perm(len(universe)) {
				if k == 0 || (k > 1 && r.Intn(3) == 0) {
					b.Create(dir, universe[i])
				}
			}
		}
		f, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		ov := NewOverlay(f)
		for _, id := range dirs {
			d := ov.node(id)
			if d.dir.mutated {
				t.Fatalf("round %d: %s is mutated", round, d)
			}
			for _, name := range probes {
				want, wok := scan(d, name)
				got, ok := d.LookupChild(name)
				if ok != wok || got != want {
					t.Fatalf("round %d: %s LookupChild(%q) = %v, %v; the scan finds %v, %v", round, d, name, got, ok, want, wok)
				}
			}
			if d.dir.mutated {
				t.Fatalf("round %d: lookups mutated %s", round, d)
			}
		}

		// The same names with one given twice, in shuffled order.
		b = NewBuilder()
		dir := b.Mkdir(b.Mkdir(b.Root(), "d"), "e")
		dup := universe[r.Intn(len(universe))]
		names := append(append([]string(nil), universe...), dup)
		for _, i := range r.Perm(len(names)) {
			b.Create(dir, names[i])
		}
		if f, err := b.Freeze(); f != nil || err == nil || !strings.Contains(err.Error(), fmt.Sprintf("/d/e already contains %q", dup)) {
			t.Fatalf("round %d: duplicate %q: snapshot %v, err %v", round, dup, f, err)
		}
	}
}

// TestConcurrentOverlays runs several overlays over one shared base
// concurrently, each applying its own mutation storm. Under -race this
// verifies overlays never write to shared state.
func TestConcurrentOverlays(t *testing.T) {
	baseTree, f := genBase(t, 11, 60, 5)
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			ov := NewOverlay(f)
			for seq := 0; seq < 300; seq++ {
				inos := walkOrder(ov)
				n := inos[r.Intn(len(inos))]
				switch r.Intn(5) {
				case 0:
					if n.IsDir() {
						_, _ = ov.Create(n, fmt.Sprintf("w%d_%d", w, seq))
					}
				case 1:
					if n.IsDir() {
						_, _ = ov.Mkdir(n, fmt.Sprintf("wd%d_%d", w, seq))
					}
				case 2:
					_ = ov.Remove(n)
				case 3:
					d := inos[r.Intn(len(inos))]
					if d.IsDir() {
						_ = ov.Rename(n, d, fmt.Sprintf("wr%d_%d", w, seq))
					}
				case 4:
					ov.Chmod(n, n.Mode^0o022)
				}
			}
			errs[w] = ov.CheckInvariants()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d invariants: %v", w, err)
		}
	}
	// The storm must not have altered the shared base: a fresh overlay
	// still matches the original generated tree exactly.
	requireSameShape(t, baseTree, NewOverlay(f))
}
