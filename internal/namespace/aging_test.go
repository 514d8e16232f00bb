package namespace

import (
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

// TestCompactTombstonesRepresentation: the map→bitset swap preserves
// the tombstone set, membership queries, iteration order, and
// accounting, and is idempotent.
func TestCompactTombstonesRepresentation(t *testing.T) {
	ov, _, dead := agedOverlay(t)
	if ov.TombstonesCompacted() {
		t.Fatal("fresh overlay already compacted")
	}
	before := ov.TombstoneCount()
	if before != len(dead) {
		t.Fatalf("TombstoneCount = %d, want %d", before, len(dead))
	}
	var mapOrder []InodeID
	ov.ForEachTombstone(func(id InodeID) { mapOrder = append(mapOrder, id) })

	if n := ov.CompactTombstones(); n != before {
		t.Fatalf("CompactTombstones migrated %d, want %d", n, before)
	}
	if !ov.TombstonesCompacted() {
		t.Fatal("bitset not installed")
	}
	if got := ov.TombstoneCount(); got != before {
		t.Fatalf("count after compaction = %d, want %d", got, before)
	}
	var bitOrder []InodeID
	ov.ForEachTombstone(func(id InodeID) { bitOrder = append(bitOrder, id) })
	if len(bitOrder) != len(mapOrder) {
		t.Fatalf("iteration sizes differ: %d vs %d", len(bitOrder), len(mapOrder))
	}
	for i := range bitOrder {
		if bitOrder[i] != mapOrder[i] {
			t.Fatalf("iteration order diverged at %d: %d vs %d", i, bitOrder[i], mapOrder[i])
		}
		if i > 0 && bitOrder[i] <= bitOrder[i-1] {
			t.Fatalf("bitset iteration not ascending at %d", i)
		}
	}
	for _, id := range dead {
		if !ov.Tombstoned(id) {
			t.Fatalf("inode %d lost its tombstone across compaction", id)
		}
		if _, ok := ov.ByID(id); ok {
			t.Fatalf("tombstoned inode %d resolves after compaction", id)
		}
	}
	if n := ov.CompactTombstones(); n != 0 {
		t.Fatalf("second compaction migrated %d, want 0", n)
	}
}

// TestOverlaySnapshotRoundTrip serializes an aged overlay and restores
// it onto a pristine overlay of the same base: shape, tombstones,
// accounting, ID watermark, and read-through counters must all match.
func TestOverlaySnapshotRoundTrip(t *testing.T) {
	for _, compact := range []bool{false, true} {
		ov, f, dead := agedOverlay(t)
		if compact {
			ov.CompactTombstones()
		}
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
			t.Fatalf("compact=%v: %v", compact, dec.Err())
		}

		requireSameShape(t, ov, got)
		if got.MaxID() != ov.MaxID() {
			t.Errorf("MaxID = %d, want %d", got.MaxID(), ov.MaxID())
		}
		if got.TombstoneCount() != ov.TombstoneCount() {
			t.Errorf("tombstones = %d, want %d", got.TombstoneCount(), ov.TombstoneCount())
		}
		if got.TombstonesCompacted() != compact {
			t.Errorf("compacted = %v, want %v", got.TombstonesCompacted(), compact)
		}
		if got.BaseDeletes != ov.BaseDeletes || got.Resurrected != ov.Resurrected {
			t.Errorf("accounting %d/%d, want %d/%d",
				got.BaseDeletes, got.Resurrected, ov.BaseDeletes, ov.Resurrected)
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
}
