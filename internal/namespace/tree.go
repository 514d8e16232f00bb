package namespace

import (
	"fmt"
	"strings"
)

// Tree is a complete file-system namespace: a private overlay of a
// frozen snapshot (NewOverlay). It is the single ground truth for a
// simulation: MDS caches hold references to its inodes, and all metadata
// mutations flow through its methods so the subtree counters stay
// consistent.
type Tree struct {
	Root   *Inode
	byID   map[InodeID]*Inode
	nextID InodeID

	// base is the shared immutable snapshot this tree overlays. slab
	// holds the run-private copies of every base inode (indexed by
	// id-1), and byID holds only inodes created after the thaw (see
	// frozen.go).
	base *Frozen
	slab []Inode
	// dead tombstones base IDs destroyed in this overlay so ByID cannot
	// resurrect their slab slots: one bit per base inode, allocated on
	// the first removal. Pointer-free, so the GC never scans it.
	dead []uint64

	// BaseDeletes counts base inodes destroyed in this overlay. IDs are
	// never reused, so it equals the tombstone count, which simfsck checks.
	BaseDeletes uint64
	// lazyLookups/lazyMisses instrument the name-index read-through:
	// LookupChild calls served by the frozen base's shared per-directory
	// maps, and how many missed. Per overlay: sweep workers never share
	// one, so plain increments suffice.
	lazyLookups uint64
	lazyMisses  uint64

	// Counts maintained across mutations.
	NumFiles int
	NumDirs  int
}

func (t *Tree) allocID() InodeID {
	t.nextID++
	return t.nextID
}

// ByID returns the inode with the given ID, if it exists. Base IDs
// resolve directly into the slab.
func (t *Tree) ByID(id InodeID) (*Inode, bool) {
	if t.base.contains(id) {
		if t.dead != nil && t.dead[id>>6]&(1<<(id&63)) != 0 {
			return nil, false
		}
		return t.node(id), true
	}
	if n, ok := t.byID[id]; ok {
		return n, true
	}
	return nil, false
}

// Len returns the total number of live inodes.
func (t *Tree) Len() int { return t.NumFiles + t.NumDirs }

// MaxID returns the highest inode ID allocated so far. IDs are never
// reused, so capturing this before a run gives a watermark: any live
// inode with a larger ID was created during the run. The consistency
// checker (internal/chaos) uses it to scope its dirstore cross-check to
// run-created entries.
func (t *Tree) MaxID() InodeID { return t.nextID }

// Mkdir creates a directory named name under parent.
func (t *Tree) Mkdir(parent *Inode, name string) (*Inode, error) {
	return t.add(parent, name, Dir)
}

// Create creates a file named name under parent.
func (t *Tree) Create(parent *Inode, name string) (*Inode, error) {
	return t.add(parent, name, File)
}

func (t *Tree) add(parent *Inode, name string, kind Kind) (*Inode, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	n := t.newInode(t.allocID(), kind, name)
	if err := parent.attach(n); err != nil {
		return nil, err
	}
	parent.adjustSubtreeCount(1)
	t.byID[n.ID] = n
	if kind == Dir {
		t.NumDirs++
	} else {
		t.NumFiles++
	}
	return n, nil
}

func validName(name string) error {
	if name == "" || strings.ContainsRune(name, '/') {
		return fmt.Errorf("namespace: invalid name %q", name)
	}
	return nil
}

// Remove unlinks and destroys the inode. A directory must be empty.
func (t *Tree) Remove(n *Inode) error {
	if n == t.Root {
		return fmt.Errorf("namespace: cannot remove root")
	}
	if n.Kind == Dir && n.NumChildren() > 0 {
		return fmt.Errorf("namespace: directory %s not empty", n.Path())
	}
	parent := n.parent
	if parent == nil {
		return fmt.Errorf("namespace: %s has no parent", n)
	}
	if err := parent.detach(n); err != nil {
		return err
	}
	parent.adjustSubtreeCount(-n.SubtreeInodes())
	delete(t.byID, n.ID)
	t.destroyed(n.ID)
	if n.Kind == Dir {
		t.NumDirs--
	} else {
		t.NumFiles--
	}
	return nil
}

// Rename moves n into dstDir under newName. Renaming a directory into its
// own subtree is rejected. This is the fixed-cost whole-subtree move the
// hierarchical design makes cheap (§4.1) and the operation that is
// expensive for path-hashed distributions.
func (t *Tree) Rename(n *Inode, dstDir *Inode, newName string) error {
	if err := validName(newName); err != nil {
		return err
	}
	if n == t.Root {
		return fmt.Errorf("namespace: cannot rename root")
	}
	if dstDir.Kind != Dir {
		return fmt.Errorf("namespace: rename target %s is not a directory", dstDir.Path())
	}
	if n.parent == nil {
		return fmt.Errorf("namespace: cannot rename unlinked inode %d", n.ID)
	}
	if n == dstDir || (n.Kind == Dir && n.IsAncestorOf(dstDir)) {
		return fmt.Errorf("namespace: cannot move %s into its own subtree", n.Path())
	}
	if dstDir.parent == nil && dstDir != t.Root {
		return fmt.Errorf("namespace: rename destination %d is unlinked", dstDir.ID)
	}
	if _, exists := dstDir.LookupChild(newName); exists {
		return fmt.Errorf("namespace: %s already contains %q", dstDir.Path(), newName)
	}
	src := n.parent
	if err := src.detach(n); err != nil {
		return err
	}
	sub := n.SubtreeInodes()
	src.adjustSubtreeCount(-sub)
	n.name = newName
	if err := dstDir.attach(n); err != nil {
		// Re-attach where it was; attach cannot fail here because the
		// name was just freed.
		_ = src.attach(n)
		src.adjustSubtreeCount(sub)
		return err
	}
	dstDir.adjustSubtreeCount(sub)
	return nil
}

// Chmod updates an inode's permission word.
func (t *Tree) Chmod(n *Inode, mode Mode) { n.Mode = mode }

// Lookup resolves an absolute slash-separated path. Components are
// iterated in place (see Segments), so resolution does not allocate.
func (t *Tree) Lookup(path string) (*Inode, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("namespace: path %q is not absolute", path)
	}
	n := t.Root
	it := Segments(path)
	for {
		part, ok := it.Next()
		if !ok {
			return n, nil
		}
		c, ok := n.LookupChild(part)
		if !ok {
			return nil, fmt.Errorf("namespace: %q not found under %s", part, n.Path())
		}
		n = c
	}
}

// Walk visits every inode in depth-first order, parents before children.
// Returning false from fn prunes descent into that subtree.
func (t *Tree) Walk(fn func(*Inode) bool) {
	var rec func(n *Inode)
	rec = func(n *Inode) {
		if !fn(n) {
			return
		}
		for i := 0; i < n.NumChildren(); i++ {
			rec(n.Child(i))
		}
	}
	rec(t.Root)
}

// CheckInvariants validates subtree counters, parent/child symmetry and
// the name indexes. It changes nothing, not even which directories are
// lazy: a lazy directory's children are checked against the frozen
// base's index directly, which the read-through counters do not see.
// Returns the first violation found.
func (t *Tree) CheckInvariants() error {
	var err error
	t.Walk(func(n *Inode) bool {
		if err != nil {
			return false
		}
		if (n.dir != nil) != (n.Kind == Dir) {
			err = fmt.Errorf("%s: directory record present = %v", n, n.dir != nil)
			return false
		}
		want := 1
		for i, c := range n.Children() {
			if c.parent != n {
				err = fmt.Errorf("child %s has wrong parent", c)
				return false
			}
			if !n.indexes(i, c) {
				err = fmt.Errorf("child index broken for %s", c)
				return false
			}
			want += c.SubtreeInodes()
		}
		if got := n.SubtreeInodes(); got != want {
			err = fmt.Errorf("subtree count for %s = %d, want %d", n, got, want)
			return false
		}
		if got, ok := t.ByID(n.ID); !ok || got != n {
			err = fmt.Errorf("inode %s not resolvable by ID", n)
			return false
		}
		return true
	})
	return err
}

// indexes reports whether directory n's name index resolves c's name to
// c, its i'th child.
func (n *Inode) indexes(i int, c *Inode) bool {
	d := n.dir
	if d.lazy {
		id, ok := d.tree.base.lookup(n.ID, c.name)
		return ok && id == c.ID
	}
	j, ok := d.index[c.name]
	return ok && j == i
}
