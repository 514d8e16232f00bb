package namespace

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
// would have. Each directory record also carries a name → child-ID map,
// built once at freeze time and shared read-only by every overlay, so
// lookups in unmutated directories hit Go's fast string-keyed map path
// and no run ever rebuilds an index for a directory it never mutates.
type Frozen struct {
	nodes    []fnode
	childIDs []InodeID

	numFiles, numDirs int
}

// fnode is one flattened inode record. It carries no size or link
// count: every frozen inode has size 0 and one link.
type fnode struct {
	name   string
	kids   map[string]InodeID // directory name index, nil for files/empty dirs
	parent InodeID
	kidOff int32
	kidLen int32
	sub    int32 // SubtreeInodes
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

// children returns the CSR child-ID slice for a directory.
func (f *Frozen) children(id InodeID) []InodeID {
	fn := f.node(id)
	return f.childIDs[fn.kidOff : fn.kidOff+fn.kidLen]
}

// NewOverlay creates a private copy-on-write view of the snapshot. The
// whole overlay materializes up front as one flat slab — a single
// []Inode indexed by id-1 plus one shared child-pointer backing array —
// because the simulated workloads touch nearly the entire namespace
// anyway, and a bulk array-order copy is both far cheaper than piecewise
// materialization and far cheaper to GC than a generated tree (two large
// allocations instead of one object and one map per inode). What stays
// lazy is the per-directory name index: lookups read through to the
// base's shared per-directory name maps until a directory's first structural
// mutation (see expand), so an overlay run allocates no per-directory
// maps for the — typically vast — untouched-by-mutation portion of the
// tree. All mutation lands in the slab and the overlay's own structures;
// the base is never written. Many overlays may share one base
// concurrently; each overlay itself is single-goroutine, like Tree.
func NewOverlay(f *Frozen) *Tree {
	t := &Tree{
		byID:     make(map[InodeID]*Inode),
		base:     f,
		nextID:   InodeID(len(f.nodes)),
		NumFiles: f.numFiles,
		NumDirs:  f.numDirs,
	}
	t.slab = make([]Inode, len(f.nodes))
	backing := make([]*Inode, len(f.childIDs))
	for i := range t.slab {
		fn := &f.nodes[i]
		n := &t.slab[i]
		n.ID = InodeID(i + 1)
		n.Kind = fn.kind
		n.Mode = fn.mode
		n.name = fn.name
		n.SubtreeInodes = int(fn.sub)
		n.tree = t
		if fn.parent != 0 {
			n.parent = &t.slab[fn.parent-1]
		}
		if fn.kind == Dir && fn.kidLen > 0 {
			// Full-capacity slice of this directory's private segment of
			// the backing array: in-place swap-on-remove stays inside the
			// segment, and growth reallocates instead of clobbering the
			// next directory's segment.
			seg := backing[fn.kidOff : fn.kidOff+fn.kidLen : fn.kidOff+fn.kidLen]
			for j, cid := range f.childIDs[fn.kidOff : fn.kidOff+fn.kidLen] {
				seg[j] = &t.slab[cid-1]
			}
			n.children = seg
			n.lazyIdx = true
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
	if !n.lazyIdx {
		return
	}
	n.lazyIdx = false
	n.childIndex = make(map[string]int, len(n.children))
	for i, c := range n.children {
		n.childIndex[c.name] = i
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
