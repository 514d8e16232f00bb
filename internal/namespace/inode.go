// Package namespace models the file-system hierarchy whose metadata the
// MDS cluster manages: inodes, directories, paths, and the mutation
// operations that the metadata workload performs (create, unlink, rename,
// chmod, mkdir). Every inode has exactly one link: nothing in the
// workload creates a hard link, so the paper's anchor table for them
// (§4.5) is not modelled.
//
// The package is pure data structure: it knows nothing about simulation
// time, caching, or distribution. One Tree instance is the ground truth
// shared by the whole simulated cluster; MDS caches hold references to
// its inodes.
package namespace

import (
	"fmt"
	"strings"
)

// InodeID uniquely identifies an inode within a Tree. IDs are allocated
// sequentially and never reused, which is exactly the "alternative
// (though simpler) mechanism for allocating unique identifiers" the paper
// requires once there is no global inode table.
type InodeID uint64

// Kind distinguishes files from directories.
type Kind uint8

// Inode kinds.
const (
	File Kind = iota
	Dir
)

func (k Kind) String() string {
	if k == Dir {
		return "dir"
	}
	return "file"
}

// Mode is a simplified permission word; the simulation only cares whether
// permission-affecting updates happen, not their exact semantics.
type Mode uint16

// Inode is a file or directory metadata record. Directory inodes carry
// their children (embedded-inode storage groups a directory's entries and
// the child inodes together on disk, §4.5) in a separate record, so a
// file — most of any namespace — pays for none of it. The pointer words
// come first, so the collector scans an inode's first 32 bytes only.
// A file's size is not here: few inodes ever have one (see Tree.Size).
type Inode struct {
	parent *Inode
	name   string
	// dir is the directory record, nil exactly when Kind is File.
	dir *dirState

	ID   InodeID
	Mode Mode
	Kind Kind
	// pos is the inode's index in its parent's child list, so detach
	// swaps by position; it fills padding, not a word of its own.
	pos uint32

	// Tags is the higher layers' state for this inode; the namespace
	// package never touches it.
	Tags Tags
}

// dirState is what a directory has and a file does not. Overlay
// directories take theirs from one slab and share one backing array
// for their initial child slices (see NewOverlay); a run-created one
// takes its from the tree's dirs pool (see newInode).
type dirState struct {
	children []*Inode
	// tree is the owning tree, whose moved set and frozen base resolve
	// names (see Tree.child).
	tree *Tree
	// sub counts inodes in the subtree rooted here, this one included.
	sub int
	// mutated marks a directory that was ever attached to or detached
	// from, refused or not: only such a directory can hold a moved
	// entry, and only its child list can differ from the base, so it is
	// the set a checkpoint carries and a lookup in any other directory
	// with children is one LazyStats counts.
	mutated bool
}

// newInode makes a run-created inode of the given kind in the created
// slot of its ID, which must be above every ID created has held. It is
// not live until created.add.
func (t *Tree) newInode(id InodeID, kind Kind, name string) *Inode {
	n := t.created.slot(id)
	n.ID, n.Kind, n.Mode, n.name = id, kind, 0o644, name
	if kind == Dir {
		n.Mode = 0o755
		n.dir = t.dirs.Get()
		n.dir.tree, n.dir.sub = t, 1
	}
	return n
}

// Name returns the inode's entry name in its (primary) parent directory.
func (n *Inode) Name() string { return n.name }

// Parent returns the (primary) parent directory, or nil for the root.
func (n *Inode) Parent() *Inode { return n.parent }

// IsDir reports whether the inode is a directory.
func (n *Inode) IsDir() bool { return n.Kind == Dir }

// SubtreeInodes counts inodes in the subtree rooted here, including this
// one (1 for files). Maintained incrementally; used by workload
// generation, Lazy Hybrid update fan-out, and balancer weights.
func (n *Inode) SubtreeInodes() int {
	if n.dir == nil {
		return 1
	}
	return n.dir.sub
}

// NumChildren returns the number of directory entries (0 for files).
func (n *Inode) NumChildren() int {
	if n.dir == nil {
		return 0
	}
	return len(n.dir.children)
}

// Child returns the i'th child. Children keep a stable order except that
// removal swaps the last entry into the vacated slot.
func (n *Inode) Child(i int) *Inode { return n.dir.children[i] }

// LookupChild finds a child by name.
func (n *Inode) LookupChild(name string) (*Inode, bool) {
	d := n.dir
	if d == nil {
		return nil, false
	}
	c := d.tree.child(n, name)
	if !d.mutated && len(d.children) > 0 {
		d.tree.noteLazyLookup(c == nil)
	}
	return c, c != nil
}

// Children returns the live child slice (nil for files). Callers must
// not mutate it.
func (n *Inode) Children() []*Inode {
	if n.dir == nil {
		return nil
	}
	return n.dir.children
}

// Path returns the absolute path of the inode ("/" for the root).
func (n *Inode) Path() string {
	var parts []string
	for c := n; c.parent != nil; c = c.parent {
		parts = append(parts, c.name)
	}
	return joinReversed(parts)
}

// joinReversed makes an absolute path of components listed leaf first
// ("/" of none).
func joinReversed(parts []string) string {
	if len(parts) == 0 {
		return "/"
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	return b.String()
}

// Depth returns the number of ancestors (root = 0).
func (n *Inode) Depth() int {
	d := 0
	for c := n.parent; c != nil; c = c.parent {
		d++
	}
	return d
}

// IsAncestorOf reports whether n is a proper ancestor of other.
func (n *Inode) IsAncestorOf(other *Inode) bool {
	for c := other.parent; c != nil; c = c.parent {
		if c == n {
			return true
		}
	}
	return false
}

func (n *Inode) String() string {
	return fmt.Sprintf("%s(%d,%s)", n.Path(), n.ID, n.Kind)
}

func (n *Inode) attach(child *Inode) error {
	d := n.dir
	if d == nil {
		return fmt.Errorf("namespace: %s is not a directory", n.Path())
	}
	d.mutated = true
	t := d.tree
	if t.child(n, child.name) != nil {
		return fmt.Errorf("namespace: %s already contains %q", n.Path(), child.name)
	}
	child.parent = n
	child.pos = uint32(len(d.children))
	old := d.children
	d.children = append(old, child)
	if len(old) == cap(old) {
		// The list moved to a new array. A base directory's old one is
		// its segment of the overlay's shared backing array, which
		// outlives it: cleared, it pins no inode that dies later.
		clear(old)
	}
	if t.displaced(child) {
		t.moved.insert(child)
	}
	return nil
}

func (n *Inode) detach(child *Inode) error {
	d := n.dir
	d.mutated = true
	if child.parent != n || !child.attached() {
		return fmt.Errorf("namespace: %s does not contain %q", n.Path(), child.name)
	}
	if t := d.tree; t.displaced(child) {
		t.moved.remove(child)
	}
	i, last := int(child.pos), len(d.children)-1
	if i != last {
		d.children[i] = d.children[last]
		d.children[i].pos = uint32(i)
	}
	d.children[last] = nil
	d.children = d.children[:last]
	child.parent = nil
	return nil
}

// attached reports whether n's parent lists it at its position.
func (n *Inode) attached() bool {
	p := n.parent
	return p != nil && p.dir != nil && int(n.pos) < len(p.dir.children) && p.dir.children[n.pos] == n
}

// adjustSubtreeCount adds delta to the subtree count of directory n and
// every ancestor.
func (n *Inode) adjustSubtreeCount(delta int) {
	for c := n; c != nil; c = c.parent {
		c.dir.sub += delta
	}
}
