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
// allocated densely from 1, root first). Directory children are stored
// CSR-style — one shared []InodeID with per-directory offset/length, in
// the directory's insertion order, so an overlay that expands a
// directory reproduces exactly the child order a freshly generated tree
// would have. byName holds the same segments, each sorted by name: the
// name index every overlay searches, read-only, for a directory it has
// not mutated, so no run builds an index for a directory it never
// mutates and the base holds no per-directory objects at all.
type Frozen struct {
	nodes    []fnode
	childIDs []InodeID
	byName   []uint32

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
// instead of one object and one map per inode). What stays lazy is the
// per-directory name index: lookups search the base's name-sorted index
// until a directory's first structural mutation (see expand), so an
// overlay run allocates no per-directory maps for the — typically vast —
// untouched-by-mutation portion of the tree. All mutation lands in the
// slabs and the overlay's own structures; the base is never written.
// Many overlays may share one base concurrently; each overlay itself is
// single-goroutine, like Tree.
func NewOverlay(f *Frozen) *Tree {
	t := &Tree{
		byID:     make(map[InodeID]*Inode),
		base:     f,
		nextID:   InodeID(len(f.nodes)),
		NumFiles: f.numFiles,
		NumDirs:  f.numDirs,
	}
	t.slab = make([]Inode, len(f.nodes))
	dirs := make([]dirState, f.numDirs)
	backing := make([]*Inode, len(f.childIDs))
	for i := range t.slab {
		fn := &f.nodes[i]
		n := &t.slab[i]
		n.ID = InodeID(i + 1)
		n.Kind = fn.kind
		n.Mode = fn.mode
		n.name = fn.name
		if fn.parent != 0 {
			n.parent = &t.slab[fn.parent-1]
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
			// the backing array: in-place swap-on-remove stays inside the
			// segment, and growth reallocates instead of clobbering the
			// next directory's segment.
			seg := backing[fn.kidOff : fn.kidOff+fn.kidLen : fn.kidOff+fn.kidLen]
			for j, cid := range f.childIDs[fn.kidOff : fn.kidOff+fn.kidLen] {
				seg[j] = &t.slab[cid-1]
			}
			d.children = seg
			d.lazy = true
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

// expand builds a directory's private name index from its current child
// list, switching lookups off the shared base index. Any structural
// mutation of a directory (attach/detach) expands it first, so the
// mutation then proceeds exactly as it would on an eagerly built tree —
// including the swap-on-remove child ordering the simulator's
// determinism depends on.
func (n *Inode) expand() {
	d := n.dir
	if d == nil || !d.lazy {
		return
	}
	d.lazy = false
	d.index = make(map[string]int, len(d.children))
	for i, c := range d.children {
		d.index[c.name] = i
	}
}

// destroyed records that a base inode no longer exists in this overlay,
// so ByID cannot re-materialize it from the base.
func (t *Tree) destroyed(id InodeID) {
	if !t.base.contains(id) {
		return
	}
	t.BaseDeletes++
	if t.dead != nil {
		t.dead[id>>6] |= 1 << (id & 63)
		return
	}
	if t.gone == nil {
		t.gone = make(map[InodeID]struct{})
	}
	t.gone[id] = struct{}{}
}
