// Package dirstore implements the on-disk directory object format the
// paper prescribes (§4.6): directory contents — entries with embedded
// inodes — "stored in a B-tree-like structure (similar to XFS) that
// allows incremental updates (small numbers of creates or deletes) with
// minimal modifications to on-disk structures (rewriting changed B-tree
// nodes). The tree structure also facilitates copy-on-write techniques
// for safe updates and advanced file system features like snapshots."
//
// The implementation is a copy-on-write B+tree keyed by entry name.
// Every mutation rewrites the nodes along its path and returns how many
// nodes were (re)written — the incremental update cost the storage
// layer accounts. Snapshot is O(1): it shares every node with the live
// tree, and subsequent mutations copy away from it. A node no snapshot
// shares is rewritten in place: the cost model counts it as written
// all the same, but the simulator allocates nothing for it.
package dirstore

import (
	"fmt"
	"slices"
	"sort"

	"dynmds/internal/namespace"
)

// Record is one directory entry with its embedded inode fields.
type Record struct {
	Name string
	Ino  namespace.InodeID
	Kind namespace.Kind
	Mode namespace.Mode
	Size int64
}

// cowToken is a copy-on-write context: a pointer identity (never a
// counter, so trees on different shards share nothing) naming the one
// tree that may write a node in place. It must not be zero-sized:
// distinct allocations need distinct addresses.
type cowToken struct{ _ byte }

// node is a B+tree node. Leaves hold records; internal nodes hold
// separator keys and children. A node is written in place only by the
// tree whose token it carries; any other tree copies it first (COW). An
// owned node's ancestors are owned too, so nothing below a shared node
// is ever written in place.
type node struct {
	cow  *cowToken
	leaf bool
	// keys: for leaves, keys[i] == recs[i].Name; for internal nodes,
	// keys[i] is the smallest key reachable under children[i+1].
	keys     []string
	recs     []Record
	children []*node
}

// writable returns n itself if t owns it, else a copy t owns.
func (t *Tree) writable(n *node) *node {
	if n.cow == t.cow {
		return n
	}
	c := &node{cow: t.cow, leaf: n.leaf}
	c.keys = append([]string(nil), n.keys...)
	if n.leaf {
		c.recs = append([]Record(nil), n.recs...)
	} else {
		c.children = append([]*node(nil), n.children...)
	}
	return c
}

// Tree is a copy-on-write B+tree directory object.
type Tree struct {
	root  *node
	order int // max records per leaf / max children per internal node
	size  int
	cow   *cowToken
}

// MinOrder is the smallest supported branching factor.
const MinOrder = 4

// New creates an empty directory object with the given order.
func New(order int) *Tree {
	if order < MinOrder {
		order = MinOrder
	}
	cow := new(cowToken)
	return &Tree{root: &node{cow: cow, leaf: true}, order: order, cow: cow}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Order returns the branching factor.
func (t *Tree) Order() int { return t.order }

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// Snapshot returns an O(1) copy-on-write snapshot: it shares all nodes
// with t; later mutations of either tree copy nodes rather than
// modifying shared state. Both trees take fresh tokens, so every node
// reachable now is owned by neither.
func (t *Tree) Snapshot() *Tree {
	t.cow = new(cowToken)
	return &Tree{root: t.root, order: t.order, size: t.size, cow: new(cowToken)}
}

// Get looks up an entry by name.
func (t *Tree) Get(name string) (Record, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n, name)]
	}
	i := sort.SearchStrings(n.keys, name)
	if i < len(n.keys) && n.keys[i] == name {
		return n.recs[i], true
	}
	return Record{}, false
}

// childIndex returns the child to descend into for key name.
func childIndex(n *node, name string) int {
	// keys[i] is the min key of children[i+1]; descend into the last
	// child whose min key is <= name.
	i := sort.SearchStrings(n.keys, name)
	if i < len(n.keys) && n.keys[i] == name {
		return i + 1
	}
	return i
}

// Insert adds or replaces an entry, returning the number of nodes
// written (path copies plus any splits) — the incremental on-disk
// update cost.
func (t *Tree) Insert(rec Record) (nodesWritten int, err error) {
	if rec.Name == "" {
		return 0, fmt.Errorf("dirstore: empty entry name")
	}
	root, sib, sep, written, added := t.insert(t.root, rec)
	if sib != nil {
		// Root split: new root with two children.
		root = &node{cow: t.cow, keys: []string{sep}, children: []*node{root, sib}}
		written++
	}
	t.root = root
	if added {
		t.size++
	}
	return written, nil
}

// insert returns the (possibly copied) node, an optional new right
// sibling with its separator key, nodes written, and whether the entry
// count grew.
func (t *Tree) insert(n *node, rec Record) (out, sib *node, sep string, written int, added bool) {
	out = t.writable(n)
	written = 1
	if n.leaf {
		i := sort.SearchStrings(out.keys, rec.Name)
		if i < len(out.keys) && out.keys[i] == rec.Name {
			out.recs[i] = rec // replace in place (same key)
			return out, nil, "", written, false
		}
		out.keys = slices.Insert(out.keys, i, rec.Name)
		out.recs = slices.Insert(out.recs, i, rec)
		added = true
		if len(out.keys) > t.order {
			mid := len(out.keys) / 2
			right := &node{
				cow:  t.cow,
				leaf: true,
				keys: append([]string(nil), out.keys[mid:]...),
				recs: append([]Record(nil), out.recs[mid:]...),
			}
			out.keys = out.keys[:mid]
			out.recs = out.recs[:mid]
			return out, right, right.keys[0], written + 1, added
		}
		return out, nil, "", written, added
	}
	ci := childIndex(n, rec.Name)
	child, csib, csep, cw, cadded := t.insert(n.children[ci], rec)
	written += cw
	added = cadded
	out.children[ci] = child
	if csib != nil {
		out.keys = slices.Insert(out.keys, ci, csep)
		out.children = slices.Insert(out.children, ci+1, csib)
		if len(out.children) > t.order {
			mid := len(out.keys) / 2
			sep = out.keys[mid]
			right := &node{
				cow:      t.cow,
				keys:     append([]string(nil), out.keys[mid+1:]...),
				children: append([]*node(nil), out.children[mid+1:]...),
			}
			out.keys = out.keys[:mid]
			out.children = out.children[:mid+1]
			return out, right, sep, written + 1, added
		}
	}
	return out, nil, "", written, added
}

// Delete removes an entry, returning nodes written and whether the
// entry existed. Underflowing nodes borrow from or merge with siblings
// so the tree stays balanced.
func (t *Tree) Delete(name string) (nodesWritten int, ok bool) {
	root, written, ok := t.del(t.root, name)
	if !ok {
		return 0, false
	}
	// Collapse a root with a single child.
	for !root.leaf && len(root.children) == 1 {
		root = root.children[0]
	}
	t.root = root
	t.size--
	return written, true
}

func (t *Tree) minKeys() int { return t.order / 2 }

func (t *Tree) del(n *node, name string) (out *node, written int, ok bool) {
	if n.leaf {
		i := sort.SearchStrings(n.keys, name)
		if i >= len(n.keys) || n.keys[i] != name {
			return n, 0, false
		}
		out = t.writable(n)
		out.keys = slices.Delete(out.keys, i, i+1)
		out.recs = slices.Delete(out.recs, i, i+1)
		// A leaf rewritten in place keeps its slices for life, so one
		// that has lost more than half its entries gives the slack back
		// (a copy used to, on every write). The margin keeps a small
		// directory that alternates delete and create from reallocating.
		if cap(out.keys) > 2*len(out.keys)+4 {
			out.keys = slices.Clone(out.keys)
			out.recs = slices.Clone(out.recs)
		}
		return out, 1, true
	}
	ci := childIndex(n, name)
	child, cw, ok := t.del(n.children[ci], name)
	if !ok {
		return n, 0, false
	}
	out = t.writable(n)
	out.children[ci] = child
	written = cw + 1
	// Fix underflow in the updated child.
	if t.underflow(child) {
		written += t.rebalance(out, ci)
	}
	return out, written, true
}

func (t *Tree) underflow(n *node) bool {
	if n.leaf {
		return len(n.keys) < t.minKeys()
	}
	return len(n.children) < t.minKeys()
}

// rebalance fixes an underflowing child ci of parent p (both already
// owned by t) by borrowing from or merging with a sibling. Returns extra
// nodes written: the child counts again, as a second write of its block.
func (t *Tree) rebalance(p *node, ci int) int {
	child := p.children[ci]
	// Try borrowing from the left sibling.
	if ci > 0 {
		left := p.children[ci-1]
		if t.canLend(left) {
			l := t.writable(left)
			if child.leaf {
				k := l.keys[len(l.keys)-1]
				r := l.recs[len(l.recs)-1]
				l.keys, l.recs = l.keys[:len(l.keys)-1], l.recs[:len(l.recs)-1]
				child.keys = slices.Insert(child.keys, 0, k)
				child.recs = slices.Insert(child.recs, 0, r)
				p.keys[ci-1] = k
			} else {
				// Rotate through the parent separator.
				moved := l.children[len(l.children)-1]
				movedKey := l.keys[len(l.keys)-1]
				l.children = l.children[:len(l.children)-1]
				l.keys = l.keys[:len(l.keys)-1]
				child.children = slices.Insert(child.children, 0, moved)
				child.keys = slices.Insert(child.keys, 0, p.keys[ci-1])
				p.keys[ci-1] = movedKey
			}
			p.children[ci-1] = l
			return 2
		}
	}
	// Try borrowing from the right sibling.
	if ci < len(p.children)-1 {
		right := p.children[ci+1]
		if t.canLend(right) {
			r := t.writable(right)
			if child.leaf {
				k := r.keys[0]
				rec := r.recs[0]
				r.keys, r.recs = slices.Delete(r.keys, 0, 1), slices.Delete(r.recs, 0, 1)
				child.keys = append(child.keys, k)
				child.recs = append(child.recs, rec)
				p.keys[ci] = r.keys[0]
			} else {
				moved := r.children[0]
				movedKey := r.keys[0]
				r.children = slices.Delete(r.children, 0, 1)
				r.keys = slices.Delete(r.keys, 0, 1)
				child.children = append(child.children, moved)
				child.keys = append(child.keys, p.keys[ci])
				p.keys[ci] = movedKey
			}
			p.children[ci+1] = r
			return 2
		}
	}
	// Merge with a sibling.
	li := ci - 1
	if li < 0 {
		li = ci // merge child with its right sibling instead
	}
	l, r := t.writable(p.children[li]), p.children[li+1]
	if l.leaf {
		l.keys = append(l.keys, r.keys...)
		l.recs = append(l.recs, r.recs...)
	} else {
		l.keys = append(l.keys, p.keys[li])
		l.keys = append(l.keys, r.keys...)
		l.children = append(l.children, r.children...)
	}
	p.keys = slices.Delete(p.keys, li, li+1)
	p.children[li] = l
	p.children = slices.Delete(p.children, li+1, li+2)
	return 1
}

func (t *Tree) canLend(n *node) bool {
	if n.leaf {
		return len(n.keys) > t.minKeys()
	}
	return len(n.children) > t.minKeys()
}

// Range visits entries in name order; returning false stops iteration.
func (t *Tree) Range(fn func(Record) bool) {
	t.rangeNode(t.root, fn)
}

func (t *Tree) rangeNode(n *node, fn func(Record) bool) bool {
	if n.leaf {
		for _, r := range n.recs {
			if !fn(r) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !t.rangeNode(c, fn) {
			return false
		}
	}
	return true
}

// Nodes counts reachable nodes (the object's on-disk footprint in
// B-tree blocks).
func (t *Tree) Nodes() int {
	var count func(n *node) int
	count = func(n *node) int {
		if n.leaf {
			return 1
		}
		total := 1
		for _, c := range n.children {
			total += count(c)
		}
		return total
	}
	return count(t.root)
}

// CheckInvariants validates key ordering, size, balance, and node
// occupancy. For tests.
func (t *Tree) CheckInvariants() error {
	var prev string
	first := true
	count := 0
	var depths []int
	var rec func(n *node, depth int, isRoot bool) error
	rec = func(n *node, depth int, isRoot bool) error {
		if n.leaf {
			depths = append(depths, depth)
			if !isRoot && len(n.keys) < t.minKeys() {
				return fmt.Errorf("dirstore: leaf underflow (%d keys)", len(n.keys))
			}
			if len(n.keys) != len(n.recs) {
				return fmt.Errorf("dirstore: leaf keys/recs mismatch")
			}
			for i, k := range n.keys {
				if n.recs[i].Name != k {
					return fmt.Errorf("dirstore: key %q != record name %q", k, n.recs[i].Name)
				}
				if !first && k <= prev {
					return fmt.Errorf("dirstore: keys out of order: %q after %q", k, prev)
				}
				prev, first = k, false
				count++
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("dirstore: internal node fanout mismatch")
		}
		if !isRoot && len(n.children) < t.minKeys() {
			return fmt.Errorf("dirstore: internal underflow (%d children)", len(n.children))
		}
		for _, c := range n.children {
			if err := rec(c, depth+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.root, 0, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("dirstore: size %d != counted %d", t.size, count)
	}
	for _, d := range depths {
		if d != depths[0] {
			return fmt.Errorf("dirstore: leaves at different depths")
		}
	}
	return nil
}
