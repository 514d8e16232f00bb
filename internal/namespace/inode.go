// Package namespace models the file-system hierarchy whose metadata the
// MDS cluster manages: inodes, directories, paths, and the mutation
// operations that the metadata workload performs (create, unlink, rename,
// chmod, mkdir, link). It also implements the paper's auxiliary anchor
// table (§4.5), the small global table that locates only multiply-linked
// inodes in a world of directory-embedded inodes.
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
// the child inodes together on disk, §4.5).
type Inode struct {
	ID     InodeID
	Kind   Kind
	Mode   Mode
	Size   int64
	NLink  int // number of directory entries referencing this inode
	parent *Inode
	name   string

	// Directory state (nil/empty for files). Overlay directories share
	// one backing array for their initial child slices (see NewOverlay).
	children   []*Inode
	childIndex map[string]int

	// tree is the owning tree; it backs base-index lookups for overlay
	// trees (non-overlay nodes never consult it).
	tree *Tree
	// lazyIdx marks an overlay directory whose private name index has
	// not been built yet. While set, LookupChild reads the frozen
	// base's shared per-directory name map; the first structural
	// mutation builds childIndex and clears the flag (see expand).
	lazyIdx bool

	// SubtreeInodes counts inodes in the subtree rooted here, including
	// this one (1 for files). Maintained incrementally; used by workload
	// generation, Lazy Hybrid update fan-out, and balancer weights.
	SubtreeInodes int

	// Aux is scratch space for higher layers (e.g. partition epochs,
	// popularity counters). The namespace package never touches it.
	Aux interface{}
}

// Name returns the inode's entry name in its (primary) parent directory.
func (n *Inode) Name() string { return n.name }

// Parent returns the (primary) parent directory, or nil for the root.
func (n *Inode) Parent() *Inode { return n.parent }

// IsDir reports whether the inode is a directory.
func (n *Inode) IsDir() bool { return n.Kind == Dir }

// NumChildren returns the number of directory entries (0 for files).
func (n *Inode) NumChildren() int { return len(n.children) }

// Child returns the i'th child. Children keep a stable order except that
// removal swaps the last entry into the vacated slot.
func (n *Inode) Child(i int) *Inode { return n.children[i] }

// LookupChild finds a child by name.
func (n *Inode) LookupChild(name string) (*Inode, bool) {
	if n.lazyIdx {
		id, ok := n.tree.base.nodes[n.ID-1].kids[name]
		n.tree.noteLazyLookup(!ok)
		if !ok {
			return nil, false
		}
		return n.tree.node(id), true
	}
	if n.childIndex == nil {
		return nil, false
	}
	i, ok := n.childIndex[name]
	if !ok {
		return nil, false
	}
	return n.children[i], true
}

// Children returns the live child slice. Callers must not mutate it.
func (n *Inode) Children() []*Inode { return n.children }

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
	if n.Kind != Dir {
		return fmt.Errorf("namespace: %s is not a directory", n.Path())
	}
	n.expand()
	if n.childIndex == nil {
		n.childIndex = make(map[string]int)
	}
	if _, exists := n.childIndex[child.name]; exists {
		return fmt.Errorf("namespace: %s already contains %q", n.Path(), child.name)
	}
	n.childIndex[child.name] = len(n.children)
	n.children = append(n.children, child)
	child.parent = n
	return nil
}

func (n *Inode) detach(child *Inode) error {
	n.expand()
	i, ok := n.childIndex[child.name]
	if !ok || n.children[i] != child {
		return fmt.Errorf("namespace: %s does not contain %q", n.Path(), child.name)
	}
	last := len(n.children) - 1
	if i != last {
		n.children[i] = n.children[last]
		n.childIndex[n.children[i].name] = i
	}
	n.children = n.children[:last]
	delete(n.childIndex, child.name)
	child.parent = nil
	return nil
}

// adjustSubtreeCount adds delta to the SubtreeInodes of n and every
// ancestor.
func (n *Inode) adjustSubtreeCount(delta int) {
	for c := n; c != nil; c = c.parent {
		c.SubtreeInodes += delta
	}
}
