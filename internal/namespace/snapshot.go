package namespace

import (
	"cmp"
	"slices"

	"dynmds/internal/snap"
)

// Overlay checkpointing: an overlay tree is serialized as a delta
// against its immutable frozen base — tombstones, run-created inodes,
// base inodes whose fields drifted from their frozen record, and the
// ordered child list of every directory whose private name index has
// been materialized (any structural mutation materializes it, so the
// set of emitted directories is exactly the set whose child order can
// differ from the base). Restoring applies the delta onto a pristine
// overlay of the same base; the result is field-identical to the
// serialized tree, including the lazy/expanded split the read-through
// instrumentation depends on.

// SnapRef carries a reference to a live inode as its ID: written from
// *p, read and resolved against the restored tree. what names the
// referrer in the error.
func (t *Tree) SnapRef(c *snap.Codec, p **Inode, what string) {
	var id InodeID
	if !c.Reading() {
		id = (*p).ID
	}
	snap.U(c, &id)
	if !c.Reading() || c.Err() != nil {
		return
	}
	n, ok := t.ByID(id)
	if !ok {
		c.Failf("%s: inode %d unresolvable", what, id)
		return
	}
	*p = n
}

// snapFields walks the fields a delta carries for one inode, created or
// drifted, up to its parent, which travels as an ID (0: none) and is
// resolved by the caller once every inode it can name exists.
func (n *Inode) snapFields(c *snap.Codec) (parent InodeID) {
	snap.U(c, &n.Mode)
	snap.I(c, &n.Size)
	snap.I(c, &n.NLink)
	snap.I(c, &n.SubtreeInodes)
	c.String(&n.name)
	if n.parent != nil {
		parent = n.parent.ID
	}
	snap.U(c, &parent)
	return parent
}

// setParent resolves a parent read by snapFields.
func (t *Tree) setParent(c *snap.Codec, n *Inode, parent InodeID) {
	n.parent = nil
	if parent == 0 || c.Err() != nil {
		return
	}
	if n.parent, _ = t.ByID(parent); n.parent == nil {
		c.Failf("namespace: inode %d parent %d unresolvable", n.ID, parent)
	}
}

// drifted reports whether a live base inode differs from its frozen
// record, which has size 0 and one link.
func (t *Tree) drifted(id InodeID) bool {
	n, fn := t.node(id), t.base.node(id)
	var parent InodeID
	if n.parent != nil {
		parent = n.parent.ID
	}
	return n.name != fn.name || n.Size != 0 || n.Mode != fn.mode ||
		n.NLink != 1 || n.SubtreeInodes != int(fn.sub) || parent != fn.parent
}

// Snap walks the overlay delta. The tree must be an overlay holding no
// anchored inodes (the endurance plane runs no Link ops); reading, a
// pristine overlay of the same frozen base. Gathering what to write and
// building what was read are different work, so each part of the delta
// says which it is doing.
func (t *Tree) Snap(c *snap.Codec) {
	reading := c.Reading()
	switch {
	case t.base == nil:
		panic("namespace: snapshot of a non-overlay tree")
	case reading && (len(t.byID) != 0 || t.gone != nil || t.dead != nil):
		c.Failf("namespace: restore onto a non-pristine overlay")
	case !reading && t.Anchors != nil && t.Anchors.Len() != 0:
		panic("namespace: snapshot with anchored inodes is not supported")
	}

	snap.U(c, &t.nextID)
	if t.nextID < InodeID(len(t.base.nodes)) {
		c.Failf("namespace: snapshot MaxID %d below base size %d", t.nextID, len(t.base.nodes))
	}
	snap.I(c, &t.NumFiles)
	snap.I(c, &t.NumDirs)
	snap.U(c, &t.BaseDeletes)
	snap.U(c, &t.Resurrected)
	snap.U(c, &t.lazyLookups)
	snap.U(c, &t.lazyMisses)
	compacted := t.dead != nil
	c.Bool(&compacted)

	// Tombstones, ascending, delta-coded.
	tombs := t.TombstoneCount()
	c.Len(&tombs)
	if !reading {
		prev := InodeID(0)
		t.ForEachTombstone(func(id InodeID) {
			delta := id - prev
			snap.U(c, &delta)
			prev = id
		})
	} else {
		if compacted {
			t.dead = make([]uint64, len(t.base.nodes)/64+1)
		} else if tombs > 0 {
			t.gone = make(map[InodeID]struct{}, tombs)
		}
		for id := InodeID(0); tombs > 0 && c.Err() == nil; tombs-- {
			var delta InodeID
			snap.U(c, &delta)
			if id += delta; !t.base.contains(id) {
				c.Failf("namespace: tombstone %d outside base", id)
			} else if compacted {
				t.dead[id>>6] |= 1 << (id & 63)
			} else {
				t.gone[id] = struct{}{}
			}
		}
	}

	// Run-created inodes, ascending ID; parents are resolved after all
	// of them are registered.
	var created []*Inode
	if !reading {
		created = make([]*Inode, 0, len(t.byID))
		for _, n := range t.byID {
			created = append(created, n)
		}
		slices.SortFunc(created, func(a, b *Inode) int { return cmp.Compare(a.ID, b.ID) })
	}
	snap.Slice(c, &created)
	var parents []InodeID
	if reading {
		parents = make([]InodeID, len(created))
	}
	for i := range created {
		if c.Err() != nil {
			return
		}
		if reading {
			created[i] = &Inode{tree: t}
		}
		n := created[i]
		snap.U(c, &n.ID)
		snap.U(c, &n.Kind)
		parent := n.snapFields(c)
		if !reading || c.Err() != nil {
			continue
		}
		if t.base.contains(n.ID) || n.ID > t.nextID {
			c.Failf("namespace: created inode %d out of range", n.ID)
			return
		}
		t.byID[n.ID] = n
		parents[i] = parent
	}
	for i, parent := range parents {
		t.setParent(c, created[i], parent)
	}

	// Drifted base inodes: fields differ from the frozen record. Skip
	// tombstoned slots — their stale fields are unreachable.
	var dirty []InodeID
	if !reading {
		for i := range t.slab {
			if id := InodeID(i + 1); !t.Tombstoned(id) && t.drifted(id) {
				dirty = append(dirty, id)
			}
		}
	}
	snap.Slice(c, &dirty)
	for i := range dirty {
		snap.U(c, &dirty[i])
		if !t.base.contains(dirty[i]) {
			c.Failf("namespace: dirty inode %d outside base", dirty[i])
			return
		}
		n := t.node(dirty[i])
		if parent := n.snapFields(c); reading {
			t.setParent(c, n, parent)
		}
	}

	// Materialized directories with their ordered child IDs: base slab
	// order first, then created dirs ascending. Reading installs the
	// children and rebuilds the private name index; the directory leaves
	// the lazy read-through set exactly as it did in the serialized run.
	var mat []*Inode
	if !reading {
		for i := range t.slab {
			if t.slab[i].childIndex != nil && !t.Tombstoned(InodeID(i+1)) {
				mat = append(mat, &t.slab[i])
			}
		}
		for _, n := range created {
			if n.childIndex != nil {
				mat = append(mat, n)
			}
		}
	}
	snap.Slice(c, &mat)
	for i := range mat {
		t.SnapRef(c, &mat[i], "namespace: materialized dir")
		if c.Err() != nil {
			return
		}
		d := mat[i]
		snap.Slice(c, &d.children)
		for j := range d.children {
			t.SnapRef(c, &d.children[j], "namespace: child")
		}
		if !reading {
			continue
		}
		if c.Err() != nil {
			return
		}
		d.childIndex = make(map[string]int, len(d.children))
		for j, child := range d.children {
			if _, dup := d.childIndex[child.name]; dup {
				c.Failf("namespace: dir %d lists %q twice", d.ID, child.name)
			}
			d.childIndex[child.name] = j
		}
		d.lazyIdx = false
	}
	if !reading {
		return
	}
	// The child lists now come from the file. One that names an ancestor
	// would make every later walk of the tree endless, one that repeats
	// a child (refused above) exponential. An inode has one parent and
	// the root none, so checking that before descending ends this walk
	// whatever the file says.
	if t.Root.parent != nil {
		c.Failf("namespace: the root has a parent")
	}
	t.Walk(func(n *Inode) bool {
		for _, child := range n.children {
			if child.parent != n {
				c.Failf("namespace: inode %d listed under %d is not its child", child.ID, n.ID)
			}
		}
		return c.Err() == nil
	})
}
