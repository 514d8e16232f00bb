package namespace

import (
	"fmt"
	"math/rand"
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
	files[2].Size = 4096
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

	w := snap.NewWriter()
	snap.Encoder(w).Section("tree", ov.Snap)
	r, err := snap.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, dec := NewOverlay(f), snap.Decoder(r)
	if dec.Section("tree", got.Snap); dec.Err() != nil {
		t.Fatal(dec.Err())
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
	w := snap.NewWriter()
	snap.Encoder(w).Section("tree", ov.Snap)
	r, err := snap.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	dec := snap.Decoder(r)
	if dec.Section("tree", NewOverlay(f).Snap); dec.Err() == nil || !strings.Contains(dec.Err().Error(), "is not a directory") {
		t.Fatalf("restore: %v", dec.Err())
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
		c.String(&name)
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
	n := emptyTree().newInode(2, kind, "")
	dec := snap.Decoder(r)
	dec.Section("inode", func(c *snap.Codec) { n.snapFields(c) })
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
