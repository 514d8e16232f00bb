package namespace

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dynmds/internal/snap"
)

// agedOverlay builds an overlay over a generated frozen base and ages
// it: removes some base files, creates new entries (some in fresh
// directories), renames one base file across directories, and mutates
// one base inode in place.
func agedOverlay(t *testing.T) (*Tree, *Frozen, []InodeID) {
	t.Helper()
	_, f := genBase(t, 11, 12, 4)
	ov := NewOverlay(f)

	var files []*Inode
	var dirs []*Inode
	ov.Walk(func(n *Inode) bool {
		if n.IsDir() {
			dirs = append(dirs, n)
		} else {
			files = append(files, n)
		}
		return true
	})

	var dead []InodeID
	for i := 0; i < 5; i++ {
		dead = append(dead, files[i*3].ID)
		if err := ov.Remove(files[i*3]); err != nil {
			t.Fatal(err)
		}
	}
	nd, err := ov.Mkdir(dirs[1], "aged")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := ov.Create(nd, "n"+string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ov.Rename(files[1], nd, "moved"); err != nil {
		t.Fatal(err)
	}
	ov.Chmod(files[2], 0o600)
	ov.SetSize(files[2], 4096)
	return ov, f, dead
}

// TestTombstonesMatchReference: random creates, unlinks and renames on
// an aged overlay leave Tombstoned, ByID, TombstoneCount and the
// ascending ForEachTombstone agreeing with a map of destroyed base IDs
// kept beside the tree.
func TestTombstonesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ov, f, dead := agedOverlay(t)
		ref := make(map[InodeID]bool)
		for _, id := range dead {
			ref[id] = true
		}
		r := rand.New(rand.NewSource(seed))
		for step := 0; step < 300; step++ {
			live := walkOrder(ov)
			var dirs []*Inode
			for _, n := range live {
				if n.IsDir() {
					dirs = append(dirs, n)
				}
			}
			n, dir := live[1+r.Intn(len(live)-1)], dirs[r.Intn(len(dirs))]
			switch r.Intn(3) {
			case 0:
				mustCreate(t, ov, dir, fmt.Sprintf("c%d", step))
			case 1:
				if n.IsDir() && n.NumChildren() > 0 {
					continue
				}
				if err := ov.Remove(n); err != nil {
					t.Fatal(err)
				}
				if ov.IsBase(n.ID) {
					ref[n.ID] = true
				}
			case 2:
				if !n.IsDir() {
					if err := ov.Rename(n, dir, fmt.Sprintf("r%d", step)); err != nil {
						t.Fatal(err)
					}
				}
			}
			var want []InodeID
			for id := InodeID(0); id <= InodeID(len(f.nodes))+1; id++ {
				if got := ov.Tombstoned(id); got != ref[id] {
					t.Fatalf("seed %d step %d: Tombstoned(%d) = %v, reference %v", seed, step, id, got, ref[id])
				}
				if _, ok := ov.ByID(id); ov.IsBase(id) && ok == ref[id] {
					t.Fatalf("seed %d step %d: base inode %d resolves %v, reference tombstone %v", seed, step, id, ok, ref[id])
				}
				if ref[id] {
					want = append(want, id)
				}
			}
			var got []InodeID
			ov.ForEachTombstone(func(id InodeID) { got = append(got, id) })
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: ForEachTombstone %v, reference %v", seed, step, got, want)
			}
			if ov.TombstoneCount() != len(ref) || ov.BaseDeletes != uint64(len(ref)) {
				t.Fatalf("seed %d step %d: %d tombstones, %d base deletes, reference %d",
					seed, step, ov.TombstoneCount(), ov.BaseDeletes, len(ref))
			}
		}
	}
}

// TestOverlaySnapshotRoundTrip serializes an aged overlay and restores
// it onto a pristine overlay of the same base: shape, tombstones,
// accounting, ID watermark, and read-through counters must all match.
func TestOverlaySnapshotRoundTrip(t *testing.T) {
	ov, f, dead := agedOverlay(t)
	// Touch the lazy-index counters so the round trip covers them.
	if _, err := ov.Lookup("/d0"); err != nil {
		t.Fatal(err)
	}

	got, err := restoreOf(t, ov, f)
	if err != nil {
		t.Fatal(err)
	}

	requireSameShape(t, ov, got)
	if got.MaxID() != ov.MaxID() {
		t.Errorf("MaxID = %d, want %d", got.MaxID(), ov.MaxID())
	}
	if got.TombstoneCount() != ov.TombstoneCount() {
		t.Errorf("tombstones = %d, want %d", got.TombstoneCount(), ov.TombstoneCount())
	}
	if got.BaseDeletes != ov.BaseDeletes {
		t.Errorf("base deletes %d, want %d", got.BaseDeletes, ov.BaseDeletes)
	}
	for _, id := range dead {
		if !got.Tombstoned(id) {
			t.Errorf("restored overlay lost tombstone %d", id)
		}
	}
	gl, gm := got.LazyStats()
	wl, wm := ov.LazyStats()
	if gl != wl || gm != wm {
		t.Errorf("lazy stats %d/%d, want %d/%d", gl, gm, wl, wm)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Errorf("restored overlay invariants: %v", err)
	}
}

// TestSnapParentMustBeDirectory: a delta whose inode names a file as
// its parent is refused — every later mutation under that parent would
// find no directory record.
func TestSnapParentMustBeDirectory(t *testing.T) {
	ov, f, _ := agedOverlay(t)
	file := mustCreate(t, ov, ov.Root, "file")
	orphan := mustCreate(t, ov, ov.Root, "orphan")
	orphan.parent = file
	if _, err := restoreOf(t, ov, f); err == nil || !strings.Contains(err.Error(), "is not a directory") {
		t.Fatalf("restore: %v", err)
	}
}

// TestSnapCreatedIDs: a delta's run-created inodes carry IDs past the
// base, at most the watermark, ascending; any other ID is refused, 0
// included, before its inode takes a slot: the refused ID's page is not
// laid out.
func TestSnapCreatedIDs(t *testing.T) {
	for _, tc := range []struct {
		what string
		id   func(ov *Tree, prev InodeID) InodeID
	}{
		{"ID 0", func(*Tree, InodeID) InodeID { return 0 }},
		{"a base ID", func(ov *Tree, _ InodeID) InodeID { return InodeID(len(ov.base.nodes)) }},
		{"past the watermark", func(ov *Tree, _ InodeID) InodeID { return ov.MaxID() + 1 }},
		{"out of order", func(_ *Tree, prev InodeID) InodeID { return prev - 1 }},
	} {
		ov, f, _ := agedOverlay(t)
		prev := mustCreate(t, ov, ov.Root, "prev")
		last := mustCreate(t, ov, ov.Root, "last")
		last.ID = tc.id(ov, prev.ID)
		got, err := restoreOf(t, ov, f)
		if err == nil || !strings.Contains(err.Error(), "out of range or order") {
			t.Errorf("%s: restore: %v", tc.what, err)
		}
		for _, p := range got.created.pages {
			if p.key == last.ID/pageIDs && p.key != prev.ID/pageIDs {
				t.Errorf("%s: the refused ID %d laid out its page", tc.what, last.ID)
			}
		}
	}
}

// restoreOf writes ov's delta and restores it onto a pristine overlay
// of f.
func restoreOf(t *testing.T, ov *Tree, f *Frozen) (*Tree, error) {
	t.Helper()
	w := snap.NewWriter()
	snap.Encoder(w).Section("tree", ov.Snap)
	r, err := snap.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, dec := NewOverlay(f), snap.Decoder(r)
	dec.Section("tree", got.Snap)
	return got, dec.Err()
}

// TestSnapWriteZeroAlloc: writing an aged overlay's delta into a writer
// already grown to hold it allocates nothing — every part is counted,
// then walked, with no list of what to write gathered first.
func TestSnapWriteZeroAlloc(t *testing.T) {
	ov, _, _ := agedOverlay(t)
	count := snap.NewCounter()
	ov.Snap(snap.Encoder(count))
	const runs = 20
	w := snap.NewWriter()
	w.Grow((runs + 1) * count.Len())
	enc := snap.Encoder(w)
	runtime.GC()
	if allocs := testing.AllocsPerRun(runs, func() { ov.Snap(enc) }); allocs != 0 {
		t.Errorf("writing the overlay delta allocated %.1f times, want 0", allocs)
	}
	if want := (runs + 1) * count.Len(); w.Len() != want {
		t.Fatalf("wrote %d bytes, want %d", w.Len(), want)
	}
}

// unlist takes n out of dir's child list the way detach would, but
// leaves n's parent and the moved set alone: the list a damaged file
// carries.
func unlist(dir, n *Inode) {
	d := dir.dir
	last := d.children[len(d.children)-1]
	d.children[n.pos], last.pos = last, n.pos
	d.children = d.children[:len(d.children)-1]
	d.mutated = true
}

// TestSnapFarCreatedID: the watermark is only a number in the file, and
// a created inode's ID may lie anywhere up to it. Restoring one near
// 2^40 costs memory in proportion to the file, not to the ID, whether
// the file holds together (it restores) or leaves that inode out of
// every child list (it is refused).
func TestSnapFarCreatedID(t *testing.T) {
	for _, listed := range []bool{true, false} {
		ov, f, _ := agedOverlay(t)
		ov.nextID = 1 << 40
		far := mustCreate(t, ov, ov.Root, "far")
		if !listed {
			unlist(ov.Root, far)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := restoreOf(t, ov, f)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Errorf("listed %v: restore allocated %d bytes", listed, grew)
		}
		if !listed {
			if err == nil || !strings.Contains(err.Error(), "listed by no directory") {
				t.Errorf("unlisted far inode: restore: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := got.ByID(far.ID); !ok || n.Path() != "/far" || got.MaxID() != far.ID {
			t.Errorf("far inode %d: resolves %v, MaxID %d", far.ID, ok, got.MaxID())
		}
		if err := got.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// TestSnapUnlistedBaseChild: a file may list a mutated directory's
// children and leave out a base child still at its frozen place, which
// is neither tombstoned nor drifted. Lookups must not find an entry the
// child list lacks, and a restore refuses such a file: the inode would
// resolve by ID yet be out of every walk.
func TestSnapUnlistedBaseChild(t *testing.T) {
	ov, f, _ := agedOverlay(t)
	var dir, b *Inode
	ov.Walk(func(n *Inode) bool {
		if c := n.Children(); b == nil && n.IsDir() && !n.dir.mutated && len(c) > 0 && !c[0].IsDir() {
			dir, b = n, c[0]
		}
		return b == nil
	})
	if b == nil {
		t.Fatal("no unmutated base directory with a file")
	}
	mustCreate(t, ov, dir, "new")
	unlist(dir, b)
	if c, ok := dir.LookupChild(b.name); ok {
		t.Errorf("lookup of unlisted %q found %s", b.name, c)
	}
	if _, err := restoreOf(t, ov, f); err == nil || !strings.Contains(err.Error(), "listed by no directory") {
		t.Errorf("restore: %v", err)
	}
}

// TestSnapDuplicateName: a file whose child list names one entry twice
// is refused, whether the second holder of the name is a base entry
// still at its frozen place, listed before or after it, or another
// moved entry.
func TestSnapDuplicateName(t *testing.T) {
	for _, tc := range []string{"base entry first", "base entry last", "two moved entries"} {
		ov, f, _ := agedOverlay(t)
		dir := ov.Root
		b := dir.Children()[0]
		x := mustCreate(t, ov, dir, "x")
		switch tc {
		case "base entry last":
			d := dir.dir.children
			d[0], d[x.pos] = x, b
			b.pos, x.pos = x.pos, 0
		case "two moved entries":
			b = mustCreate(t, ov, dir, "y")
		}
		x.name = b.name
		if _, err := restoreOf(t, ov, f); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Errorf("%s: restore: %v", tc, err)
		}
	}
}

// TestSnapUnreachableLoop: two base directories listed under each
// other, each the other's parent and neither under the root, pass
// every per-list check; a restore refuses them as unreachable.
func TestSnapUnreachableLoop(t *testing.T) {
	ov, f, _ := agedOverlay(t)
	var x, y *Inode
	for _, c := range ov.Root.Children() {
		if c.IsDir() && ov.IsBase(c.ID) && x == nil {
			x = c
		} else if c.IsDir() && ov.IsBase(c.ID) && y == nil {
			y = c
		}
	}
	if y == nil {
		t.Fatal("root has fewer than two base directories")
	}
	unlist(ov.Root, x)
	unlist(ov.Root, y)
	for _, e := range [][2]*Inode{{x, y}, {y, x}} {
		dir, n := e[0], e[1]
		n.parent, n.pos = dir, uint32(len(dir.dir.children))
		dir.dir.children = append(dir.dir.children, n)
		dir.dir.mutated = true
	}
	if _, err := restoreOf(t, ov, f); err == nil || !strings.Contains(err.Error(), "unreachable from the root") {
		t.Errorf("restore: %v", err)
	}
}

// inodeRecord is an inode's delta record with the given subtree count.
func inodeRecord(sub int) []byte {
	w := snap.NewWriter()
	snap.Encoder(w).Section("inode", func(c *snap.Codec) {
		var mode Mode
		var size int64
		name, parent := "f", InodeID(0)
		snap.U(c, &mode)
		snap.I(c, &size)
		snap.I(c, &sub)
		c.String(&name, nil) // writing only
		snap.U(c, &parent)
	})
	return w.Bytes()
}

// restoreRecord reads record into a fresh inode of the given kind.
func restoreRecord(t *testing.T, kind Kind, record []byte) (*Inode, error) {
	t.Helper()
	r, err := snap.NewReader(record)
	if err != nil {
		t.Fatal(err)
	}
	tr := emptyTree()
	n := tr.newInode(2, kind, "")
	dec := snap.Decoder(r)
	dec.Section("inode", func(c *snap.Codec) { tr.snapFields(c, n) })
	return n, dec.Err()
}

// TestSnapFileSubtreeSlot: a file has no directory record to hold a
// subtree count, so its record's slot reads 1 and a restore refuses any
// other value; a directory takes whatever its record holds.
func TestSnapFileSubtreeSlot(t *testing.T) {
	for _, sub := range []int{1, 0, 2} {
		if _, err := restoreRecord(t, File, inodeRecord(sub)); (err == nil) != (sub == 1) {
			t.Errorf("file with subtree count %d: restore error %v", sub, err)
		}
	}
	if n, err := restoreRecord(t, Dir, inodeRecord(7)); err != nil || n.SubtreeInodes() != 7 {
		t.Errorf("directory with subtree count 7: restore error %v, count %d", err, n.SubtreeInodes())
	}
}
