package namespace

import (
	"slices"
	"strings"
)

// Frozen is an immutable namespace snapshot: the whole generated tree
// flattened into dense arrays indexed by InodeID. A Frozen is built once
// (Builder.Freeze) and then shared — concurrently and without locks — by
// any number of simulation runs, each of which layers a private
// copy-on-write overlay Tree (NewOverlay) on top. The base is never
// mutated after Freeze returns; all create/remove/rename activity lands
// in the overlays.
//
// Layout: node records live in a single slice indexed by id-1 (IDs are
// allocated densely from 1, root first). Each directory owns one
// segment of byName (offset and length in its record), holding its
// children's IDs sorted by name: the name index of every base entry,
// which overlays search read-only and keep only their differences
// from (see movedSet). Child order needs no array of its own: ascending
// ID is the order each directory received its children, which is how
// NewOverlay lays out the child lists. The base holds no per-directory
// objects at all.
type Frozen struct {
	nodes  []fnode
	byName []uint32

	numFiles, numDirs int
}

// fnode is one flattened inode record. It carries no size or link
// count: every frozen inode has size 0 and one link.
type fnode struct {
	name   string
	parent InodeID
	kidOff uint32
	kidLen uint32
	sub    uint32 // subtree inode count
	mode   Mode
	kind   Kind
}

// rootID is the ID NewBuilder assigns the root directory.
const rootID InodeID = 1

// NumInodes returns the number of inodes in the snapshot.
func (f *Frozen) NumInodes() int { return len(f.nodes) }

// node returns the record for id. The caller guarantees validity.
func (f *Frozen) node(id InodeID) *fnode { return &f.nodes[id-1] }

// contains reports whether id names a snapshot inode.
func (f *Frozen) contains(id InodeID) bool {
	return id >= rootID && id <= InodeID(len(f.nodes))
}

// lookup finds directory dir's child named name by binary search of its
// name-sorted segment.
func (f *Frozen) lookup(dir InodeID, name string) (InodeID, bool) {
	fn := f.node(dir)
	seg := f.byName[fn.kidOff : fn.kidOff+fn.kidLen]
	i, ok := slices.BinarySearchFunc(seg, name, func(id uint32, name string) int {
		return strings.Compare(f.nodes[id-1].name, name)
	})
	if !ok {
		return 0, false
	}
	return InodeID(seg[i]), true
}

// NewOverlay creates a private copy-on-write view of the snapshot. The
// whole overlay materializes up front as three flat slabs — a []Inode
// indexed by id-1, a []dirState holding every directory's record, and
// one shared child-pointer backing array — because the simulated
// workloads touch nearly the entire namespace anyway, and a bulk
// array-order copy is both far cheaper than piecewise materialization
// and far cheaper to GC than a generated tree (three large allocations
// instead of one object and one map per inode). No name index is
// built: the base's sorted one serves every entry still at its frozen
// place, and the overlay's moved set, empty at first, every other. All
// mutation lands in the slabs and the overlay's own structures; the
// base is never written. Many overlays may share one base
// concurrently; each overlay itself is single-goroutine, like Tree.
func NewOverlay(f *Frozen) *Tree {
	t := &Tree{
		base:     f,
		nextID:   InodeID(len(f.nodes)),
		NumFiles: f.numFiles,
		NumDirs:  f.numDirs,
	}
	t.slab = make([]Inode, len(f.nodes))
	dirs := make([]dirState, f.numDirs)
	backing := make([]*Inode, len(f.byName))
	// One pass in ascending ID, which is each directory's child order: a
	// parent precedes its children, so its record exists when they are
	// appended to it.
	for i := range t.slab {
		fn := &f.nodes[i]
		n := &t.slab[i]
		n.ID = InodeID(i + 1)
		n.Kind = fn.kind
		n.Mode = fn.mode
		n.name = fn.name
		if fn.parent != 0 {
			p := &t.slab[fn.parent-1]
			n.parent = p
			n.pos = uint32(len(p.dir.children))
			p.dir.children = append(p.dir.children, n)
		}
		if fn.kind != Dir {
			continue
		}
		d := &dirs[0]
		dirs = dirs[1:]
		d.tree, d.sub = t, int(fn.sub)
		n.dir = d
		if fn.kidLen > 0 {
			// Full-capacity slice of this directory's private segment of
			// the backing array: appending fills it in place, in-place
			// swap-on-remove stays inside the segment, and growth
			// reallocates instead of clobbering the next directory's.
			d.children = backing[fn.kidOff : fn.kidOff : fn.kidOff+fn.kidLen]
		}
	}
	t.Root = &t.slab[0]
	return t
}

// node returns the overlay inode for a live base ID.
func (t *Tree) node(id InodeID) *Inode { return &t.slab[id-1] }

// IsBase reports whether id belongs to the frozen base layer, as
// opposed to an inode created during the run.
func (t *Tree) IsBase(id InodeID) bool { return t.base.contains(id) }

// destroyed records that an inode no longer exists in this overlay: it
// loses its size, a run-created one leaves created, and a base one is
// tombstoned so ByID cannot re-materialize it from the base.
func (t *Tree) destroyed(id InodeID) {
	delete(t.sizes, id)
	if !t.base.contains(id) {
		t.created.drop(id)
		return
	}
	t.BaseDeletes++
	t.bury(id)
}
