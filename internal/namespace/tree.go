package namespace

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"dynmds/internal/sim"
)

// Tree is a complete file-system namespace: a private overlay of a
// frozen snapshot (NewOverlay). It is the single ground truth for a
// simulation: MDS caches hold references to its inodes, and all metadata
// mutations flow through its methods so the subtree counters stay
// consistent.
type Tree struct {
	Root   *Inode
	nextID InodeID

	// base is the shared immutable snapshot this tree overlays. slab
	// holds the run-private copies of every base inode (indexed by
	// id-1), created the inodes made after the thaw and their names,
	// dirs the directory records of the created directories (never Put
	// back, so never reused), and moved every attached inode away from
	// its frozen (parent, name) — see frozen.go and moved.go.
	base    *Frozen
	slab    []Inode
	created createdSet
	dirs    sim.Pool[dirState]
	moved   movedSet
	// names keeps the names of renamed base inodes (see keep).
	names Names
	// dead tombstones base IDs destroyed in this overlay so ByID cannot
	// resurrect their slab slots: one bit per base inode, allocated on
	// the first removal. Pointer-free, so the GC never scans it.
	dead []uint64
	// sizes holds the non-zero sizes of live inodes. Only a write sets
	// one, and almost no inode ever has an entry, so the tree keeps one
	// map instead of a word in every inode.
	sizes map[InodeID]int64

	// BaseDeletes counts base inodes destroyed in this overlay. IDs are
	// never reused, so it equals the tombstone count, which simfsck checks.
	BaseDeletes uint64
	// lazyLookups/lazyMisses instrument the name-index read-through:
	// LookupChild calls on a directory with children that was never
	// mutated, which the frozen base's sorted index alone answers, and
	// how many missed. Per overlay: sweep workers never share one, so
	// plain increments suffice.
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
// resolve directly into the slab, later ones by search of created.
func (t *Tree) ByID(id InodeID) (*Inode, bool) {
	if t.base.contains(id) {
		if t.dead != nil && t.dead[id>>6]&(1<<(id&63)) != 0 {
			return nil, false
		}
		return t.node(id), true
	}
	n := t.created.get(id)
	return n, n != nil
}

// createdSet holds the run-created inodes by value, paged by ID: a page
// covers one aligned run of pageIDs IDs, and the pages sit in ascending
// ID order. IDs only grow, so a new page appends; a page leaves once
// its last inode is destroyed, except the tail page, where the next IDs
// land. The set costs memory in proportion to the pages its live inodes
// span, not to the IDs spent since the thaw: refused creates spend IDs
// too, and a checkpoint's watermark is only a number in the file.
//
// No page or slot is ever reused. An emptied tail page the next ID
// falls past is replaced by a new page, not re-keyed, so a stale
// *Inode a cache entry, a request or a generator still holds keeps
// its page alive and reads its own fields, never a newer inode's.
type createdSet struct {
	pages []createdPage
}

// pageIDs is the number of IDs a createdPage covers, a power of two.
const pageIDs = 64

// createdPage holds the inodes with IDs key*pageIDs up to the next
// page's first, inode id at n[id%pageIDs]; bit id%pageIDs of live is
// set while that inode lives.
type createdPage struct {
	key  InodeID
	live uint64
	*pageBody
}

// pageBody is a page's storage: its inodes, and the Names their names
// are kept in (see Tree.keep), so a page and its names die
// together. Pages move inside createdSet.pages; their bodies do not.
type pageBody struct {
	n     [pageIDs]Inode
	names Names
}

func (s *createdSet) find(id InodeID) (int, bool) {
	return slices.BinarySearchFunc(s.pages, id/pageIDs, func(p createdPage, key InodeID) int {
		return cmp.Compare(p.key, key)
	})
}

// get returns the live inode with ID id, or nil.
func (s *createdSet) get(id InodeID) *Inode {
	if i, ok := s.find(id); ok && s.pages[i].live&(1<<(id%pageIDs)) != 0 {
		return &s.pages[i].n[id%pageIDs]
	}
	return nil
}

// slot returns the zeroed slot of ID id, above every ID the set has
// held, laying out the page it falls in if the tail page is another.
func (s *createdSet) slot(id InodeID) *Inode {
	key, last := id/pageIDs, len(s.pages)-1
	switch {
	case last >= 0 && s.pages[last].key == key:
	case last >= 0 && s.pages[last].live == 0:
		// The tail page emptied with IDs to spare: a new page takes
		// its place.
		s.pages[last] = createdPage{key: key, pageBody: new(pageBody)}
	default:
		s.pages = append(s.pages, createdPage{key: key, pageBody: new(pageBody)})
		last++
	}
	return &s.pages[last].n[id%pageIDs]
}

// add marks n live; n is the inode in the last slot taken.
func (s *createdSet) add(n *Inode) {
	s.pages[len(s.pages)-1].live |= 1 << (n.ID % pageIDs)
}

// drop marks the inode with ID id dead, if live, and leaves its fields
// as they are.
func (s *createdSet) drop(id InodeID) {
	i, ok := s.find(id)
	if !ok {
		return
	}
	p := &s.pages[i]
	if p.live &^= 1 << (id % pageIDs); p.live == 0 && i < len(s.pages)-1 {
		s.pages = slices.Delete(s.pages, i, i+1)
	}
}

// len returns the number of live inodes.
func (s *createdSet) len() int {
	n := 0
	for _, p := range s.pages {
		n += bits.OnesCount64(p.live)
	}
	return n
}

// each calls f on every live inode in ascending ID.
func (s *createdSet) each(f func(*Inode)) {
	for _, p := range s.pages {
		for live := p.live; live != 0; live &= live - 1 {
			f(&p.n[bits.TrailingZeros64(live)])
		}
	}
}

// Len returns the total number of live inodes.
func (t *Tree) Len() int { return t.NumFiles + t.NumDirs }

// MaxID returns the highest inode ID allocated so far. IDs are never
// reused, so capturing this before a run gives a watermark: any live
// inode with a larger ID was created during the run. The consistency
// checker (internal/chaos) holds it monotone across a run and across
// checkpoint/restore.
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
	t.created.add(n)
	n.name = t.keep(n, name, true)
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
	n.name = t.keep(n, newName, false)
	return nil
}

// keep returns a copy of name, n's new name, in storage that lives as
// long as n: the Names of n's created page, or the tree's own for a
// base inode. The caller's string is never kept: it may sit in an
// issuer's block, otherwise held only by requests in flight. An inode
// being created sits in the tail page, and a fresh block made for it
// is sized for the IDs left in the page, each with a name as long; one
// made for a rename, for the name.
func (t *Tree) keep(n *Inode, name string, creating bool) string {
	if t.base.contains(n.ID) {
		return t.names.addString(name, nameBlock)
	}
	room, i := len(name), len(t.created.pages)-1
	if creating {
		room *= pageIDs - int(n.ID%pageIDs)
	} else {
		i, _ = t.created.find(n.ID)
	}
	return t.created.pages[i].names.addString(name, room)
}

// Chmod updates an inode's permission word.
func (t *Tree) Chmod(n *Inode, mode Mode) { n.Mode = mode }

// Size returns n's file size: 0 until a write sets one.
func (t *Tree) Size(n *Inode) int64 { return t.sizes[n.ID] }

// SetSize sets n's file size. An inode destroyed since keeps none: the
// write that arrives after its unlink is dropped.
func (t *Tree) SetSize(n *Inode, size int64) {
	if live, _ := t.ByID(n.ID); live == n {
		t.setSize(n.ID, size)
	}
}

func (t *Tree) setSize(id InodeID, size int64) {
	switch {
	case size == 0:
		delete(t.sizes, id)
	case t.sizes == nil:
		t.sizes = map[InodeID]int64{id: size}
	default:
		t.sizes[id] = size
	}
}

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

// CheckInvariants validates subtree counters, parent/child symmetry,
// child positions and name resolution, and the moved set: it holds
// exactly the reachable inodes away from their frozen (parent, name),
// each attached. It changes nothing and counts no read-through lookup.
// Returns the first violation found.
func (t *Tree) CheckInvariants() error {
	var err error
	displaced := 0
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
			if c.pos != uint32(i) || t.child(n, c.name) != c {
				err = fmt.Errorf("child index broken for %s", c)
				return false
			}
			if t.displaced(c) {
				displaced++
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
	if err != nil {
		return err
	}
	err = t.moved.check(func(e *Inode) error {
		switch {
		case !e.attached():
			return fmt.Errorf("moved set holds %s, which is not attached", e)
		case !t.displaced(e):
			return fmt.Errorf("moved set holds %s, which is at its frozen place", e)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if t.moved.n != displaced {
		return fmt.Errorf("moved set holds %d entries, %d reachable inodes are away from their frozen place", t.moved.n, displaced)
	}
	return nil
}
