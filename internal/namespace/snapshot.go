package namespace

import "dynmds/internal/snap"

// Overlay checkpointing: an overlay tree is serialized as a delta
// against its immutable frozen base — tombstones, run-created inodes,
// base inodes whose fields drifted from their frozen record, and the
// ordered child list of every mutated directory (only a mutated
// directory's child order can differ from the base, and only its
// children can be away from their frozen place). Restoring applies the
// delta onto a pristine overlay of the same base and rebuilds the moved
// set and child positions from those lists; the result is
// field-identical to the serialized tree, including the mutated flags
// the read-through instrumentation depends on.

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
// resolved by the caller once every inode it can name exists. The size
// is read into the tree before n is registered, so it bypasses SetSize.
func (t *Tree) snapFields(c *snap.Codec, n *Inode) (parent InodeID) {
	snap.U(c, &n.Mode)
	size := t.Size(n)
	if snap.I(c, &size); c.Reading() {
		t.setSize(n.ID, size)
	}
	sub := n.SubtreeInodes()
	snap.I(c, &sub)
	if n.dir != nil {
		n.dir.sub = sub
	} else if sub != 1 {
		c.Failf("namespace: file %d has subtree count %d, want 1", n.ID, sub)
	}
	c.String(&n.name, func(b []byte) string {
		if string(b) == n.name {
			return n.name // a drifted base inode under its frozen name
		}
		return t.keep(n, string(b), true)
	})
	if n.parent != nil {
		parent = n.parent.ID
	}
	snap.U(c, &parent)
	return parent
}

// setParent resolves a parent read by snapFields, which must be a
// directory.
func (t *Tree) setParent(c *snap.Codec, n *Inode, parent InodeID) {
	n.parent = nil
	if parent == 0 || c.Err() != nil {
		return
	}
	if n.parent, _ = t.ByID(parent); n.parent == nil {
		c.Failf("namespace: inode %d parent %d unresolvable", n.ID, parent)
	} else if n.parent.dir == nil {
		c.Failf("namespace: inode %d parent %d is not a directory", n.ID, parent)
	}
}

// drifted reports whether a live base inode differs from its frozen
// record, which has size 0.
func (t *Tree) drifted(id InodeID) bool {
	n, fn := t.node(id), t.base.node(id)
	var parent InodeID
	if n.parent != nil {
		parent = n.parent.ID
	}
	return n.name != fn.name || t.sizes[id] != 0 || n.Mode != fn.mode ||
		n.SubtreeInodes() != int(fn.sub) || parent != fn.parent
}

// Snap walks the overlay delta; reading, the tree must be a pristine
// overlay of the same frozen base. Past the counters, writing
// (snapWrite) and reading are different work: the writer walks the live
// tree and keeps nothing, the reader builds and checks what the file
// says.
func (t *Tree) Snap(c *snap.Codec) {
	reading := c.Reading()
	if reading && (len(t.created.pages) != 0 || t.moved.n != 0 || t.dead != nil || len(t.sizes) != 0) {
		c.Failf("namespace: restore onto a non-pristine overlay")
	}

	snap.U(c, &t.nextID)
	if t.nextID < InodeID(len(t.base.nodes)) {
		c.Failf("namespace: snapshot MaxID %d below base size %d", t.nextID, len(t.base.nodes))
	}
	snap.I(c, &t.NumFiles)
	snap.I(c, &t.NumDirs)
	snap.U(c, &t.BaseDeletes)
	snap.U(c, &t.lazyLookups)
	snap.U(c, &t.lazyMisses)

	if !reading {
		t.snapWrite(c)
		return
	}

	// Tombstones, ascending, delta-coded: one per base delete.
	var tombs int
	c.Len(&tombs)
	if uint64(tombs) != t.BaseDeletes {
		c.Failf("namespace: %d tombstones for %d base deletes", tombs, t.BaseDeletes)
	}
	for id := InodeID(0); tombs > 0 && c.Err() == nil; tombs-- {
		var delta InodeID
		snap.U(c, &delta)
		switch id += delta; {
		case !t.base.contains(id):
			c.Failf("namespace: tombstone %d outside base", id)
		case t.Tombstoned(id):
			c.Failf("namespace: tombstone %d listed twice", id)
		default:
			// A destroyed inode is detached: the base index must not
			// find it at its frozen place.
			t.bury(id)
			t.node(id).parent = nil
		}
	}

	// Run-created inodes, ascending ID; parents are resolved after all
	// of them are registered. An ID is checked before its inode takes
	// a slot, so a refused file lays out no page.
	var created []*Inode
	snap.Slice(c, &created)
	parents := make([]InodeID, len(created))
	prev := InodeID(len(t.base.nodes))
	for i := range created {
		var id InodeID
		var kind Kind
		snap.U(c, &id)
		snap.U(c, &kind)
		if c.Err() != nil {
			return
		}
		if id <= prev || id > t.nextID {
			c.Failf("namespace: created inode %d out of range or order", id)
			return
		}
		prev = id
		n := t.newInode(id, kind, "")
		created[i] = n
		parents[i] = t.snapFields(c, n)
		t.created.add(n)
	}
	for i, parent := range parents {
		t.setParent(c, created[i], parent)
	}

	// Drifted base inodes: fields differ from the frozen record.
	var dirty []InodeID
	snap.Slice(c, &dirty)
	for i := range dirty {
		snap.U(c, &dirty[i])
		if !t.base.contains(dirty[i]) || t.Tombstoned(dirty[i]) {
			c.Failf("namespace: dirty inode %d outside base or tombstoned", dirty[i])
			return
		}
		n := t.node(dirty[i])
		t.setParent(c, n, t.snapFields(c, n))
	}

	// Mutated directories with their ordered child IDs. Reading installs
	// the children, their positions and the moved entries among them;
	// the directory is mutated, as it was in the serialized run.
	var mat []*Inode
	snap.Slice(c, &mat)
	for i := range mat {
		t.SnapRef(c, &mat[i], "namespace: materialized dir")
		if c.Err() != nil {
			return
		}
		dir := mat[i]
		d := dir.dir
		if d == nil {
			c.Failf("namespace: materialized inode %d is not a directory", dir.ID)
			return
		}
		t.snapChildren(c, d)
		if c.Err() != nil {
			return
		}
		// Positions first, so the base index sees every listed entry
		// when the moved ones are checked for a name already taken.
		d.mutated = true
		for j, child := range d.children {
			switch {
			case child.parent != dir:
				c.Failf("namespace: inode %d listed under %d is not its child", child.ID, dir.ID)
				return
			case int(child.pos) < j && d.children[child.pos] == child:
				c.Failf("namespace: dir %d lists %q twice", dir.ID, child.name)
				return
			}
			child.pos = uint32(j)
		}
		for _, child := range d.children {
			if !t.displaced(child) {
				continue
			}
			if t.child(dir, child.name) != nil {
				c.Failf("namespace: dir %d lists %q twice", dir.ID, child.name)
				return
			}
			t.moved.insert(child)
		}
	}
	// Every live inode but the root must be listed by its parent: one
	// the file leaves out of every list would resolve by ID yet be
	// missing from every walk and lookup.
	live := 0
	for i := range t.slab {
		if n := &t.slab[i]; !t.Tombstoned(n.ID) {
			live++
			if n != t.Root && !n.attached() {
				c.Failf("namespace: inode %d is listed by no directory", n.ID)
				return
			}
		}
	}
	for _, n := range created {
		live++
		if !n.attached() {
			c.Failf("namespace: inode %d is listed by no directory", n.ID)
			return
		}
	}
	// The child lists now come from the file. One that names an ancestor
	// would make every later walk of the tree endless, one that repeats
	// a child (refused above) exponential. An inode has one parent and
	// the root none, so checking that before descending ends this walk
	// whatever the file says.
	if t.Root.parent != nil {
		c.Failf("namespace: the root has a parent")
	}
	// Lists that hang inodes on each other in a loop away from the root
	// pass every check above; the walk counts what the root reaches.
	reached := 0
	t.Walk(func(n *Inode) bool {
		reached++
		for _, child := range n.Children() {
			if child.parent != n {
				c.Failf("namespace: inode %d listed under %d is not its child", child.ID, n.ID)
			}
		}
		return c.Err() == nil
	})
	if c.Err() == nil && reached != live {
		c.Failf("namespace: %d of %d live inodes unreachable from the root", live-reached, live)
	}
}

// snapWrite writes the rest of the delta Snap reads: tombstones
// (ascending, delta-coded), run-created inodes (ascending ID), drifted
// base inodes (slab order, tombstoned slots skipped: their stale fields
// are unreachable), then mutated directories with their ordered child
// IDs (slab order, then created directories ascending). Each part is
// counted, then walked, so a checkpoint gathers nothing.
func (t *Tree) snapWrite(c *snap.Codec) {
	count := t.TombstoneCount()
	c.Len(&count)
	prev := InodeID(0)
	t.ForEachTombstone(func(id InodeID) {
		delta := id - prev
		snap.U(c, &delta)
		prev = id
	})

	count = t.created.len()
	c.Len(&count)
	t.created.each(func(n *Inode) {
		id, kind := n.ID, n.Kind
		snap.U(c, &id)
		snap.U(c, &kind)
		t.snapFields(c, n)
	})

	count = 0
	t.eachDrifted(func(*Inode) { count++ })
	c.Len(&count)
	t.eachDrifted(func(n *Inode) {
		snap.U(c, &n.ID)
		t.snapFields(c, n)
	})

	count = 0
	t.eachMutatedDir(func(*Inode) { count++ })
	c.Len(&count)
	t.eachMutatedDir(func(dir *Inode) {
		t.SnapRef(c, &dir, "namespace: materialized dir")
		t.snapChildren(c, dir.dir)
	})
}

// snapChildren carries a directory's ordered child list as IDs.
func (t *Tree) snapChildren(c *snap.Codec, d *dirState) {
	snap.Slice(c, &d.children)
	for j := range d.children {
		t.SnapRef(c, &d.children[j], "namespace: child")
	}
}

// eachDrifted calls f on every live base inode whose fields differ
// from its frozen record, in slab order.
func (t *Tree) eachDrifted(f func(*Inode)) {
	for i := range t.slab {
		if id := InodeID(i + 1); !t.Tombstoned(id) && t.drifted(id) {
			f(&t.slab[i])
		}
	}
}

// eachMutatedDir calls f on every live mutated directory: base slab
// order first, then created directories ascending.
func (t *Tree) eachMutatedDir(f func(*Inode)) {
	for i := range t.slab {
		if d := t.slab[i].dir; d != nil && d.mutated && !t.Tombstoned(InodeID(i+1)) {
			f(&t.slab[i])
		}
	}
	t.created.each(func(n *Inode) {
		if n.dir != nil && n.dir.mutated {
			f(n)
		}
	})
}
