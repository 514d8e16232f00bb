package dirstore

import (
	"fmt"
	"sort"
)

// oracleTree is the directory B+tree as it was before nodes carried a
// copy-on-write token: every mutation clones every node on its path,
// shared or not. It is kept verbatim as the test oracle for the cost
// model — nodesWritten per operation and the resulting tree shape must
// not depend on whether a node was rewritten in place or copied.
type oracleTree struct {
	root  *onode
	order int
	size  int
}

type onode struct {
	leaf     bool
	keys     []string
	recs     []Record
	children []*onode
}

func newOracle(order int) *oracleTree {
	if order < MinOrder {
		order = MinOrder
	}
	return &oracleTree{root: &onode{leaf: true}, order: order}
}

func ochildIndex(n *onode, name string) int {
	i := sort.SearchStrings(n.keys, name)
	if i < len(n.keys) && n.keys[i] == name {
		return i + 1
	}
	return i
}

// sameShape reports whether a tree and the oracle hold the same keys,
// records and children in the same nodes.
func sameShape(n *node, o *onode) error {
	if n.leaf != o.leaf || len(n.keys) != len(o.keys) || len(n.recs) != len(o.recs) || len(n.children) != len(o.children) {
		return fmt.Errorf("node shape differs: leaf %v/%v keys %d/%d recs %d/%d children %d/%d",
			n.leaf, o.leaf, len(n.keys), len(o.keys), len(n.recs), len(o.recs), len(n.children), len(o.children))
	}
	for i := range n.keys {
		if n.keys[i] != o.keys[i] {
			return fmt.Errorf("key %d is %q, oracle %q", i, n.keys[i], o.keys[i])
		}
	}
	for i := range n.recs {
		if n.recs[i] != o.recs[i] {
			return fmt.Errorf("record %d is %+v, oracle %+v", i, n.recs[i], o.recs[i])
		}
	}
	for i := range n.children {
		if err := sameShape(n.children[i], o.children[i]); err != nil {
			return err
		}
	}
	return nil
}

func (n *onode) clone() *onode {
	c := &onode{leaf: n.leaf}
	c.keys = append([]string(nil), n.keys...)
	if n.leaf {
		c.recs = append([]Record(nil), n.recs...)
	} else {
		c.children = append([]*onode(nil), n.children...)
	}
	return c
}

// Insert adds or replaces an entry, returning the number of nodes
// written (path copies plus any splits) — the incremental on-disk
// update cost.
func (t *oracleTree) Insert(rec Record) (nodesWritten int, err error) {
	if rec.Name == "" {
		return 0, fmt.Errorf("dirstore: empty entry name")
	}
	root, sib, sep, written, added := t.insert(t.root, rec)
	if sib != nil {
		// Root split: new root with two children.
		root = &onode{leaf: false, keys: []string{sep}, children: []*onode{root, sib}}
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
func (t *oracleTree) insert(n *onode, rec Record) (out, sib *onode, sep string, written int, added bool) {
	out = n.clone()
	written = 1
	if n.leaf {
		i := sort.SearchStrings(out.keys, rec.Name)
		if i < len(out.keys) && out.keys[i] == rec.Name {
			out.recs[i] = rec // replace in place (same key)
			return out, nil, "", written, false
		}
		out.keys = append(out.keys, "")
		copy(out.keys[i+1:], out.keys[i:])
		out.keys[i] = rec.Name
		out.recs = append(out.recs, Record{})
		copy(out.recs[i+1:], out.recs[i:])
		out.recs[i] = rec
		added = true
		if len(out.keys) > t.order {
			mid := len(out.keys) / 2
			right := &onode{
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
	ci := ochildIndex(n, rec.Name)
	child, csib, csep, cw, cadded := t.insert(n.children[ci], rec)
	written += cw
	added = cadded
	out.children[ci] = child
	if csib != nil {
		out.keys = append(out.keys, "")
		copy(out.keys[ci+1:], out.keys[ci:])
		out.keys[ci] = csep
		out.children = append(out.children, nil)
		copy(out.children[ci+2:], out.children[ci+1:])
		out.children[ci+1] = csib
		if len(out.children) > t.order {
			mid := len(out.keys) / 2
			sep = out.keys[mid]
			right := &onode{
				leaf:     false,
				keys:     append([]string(nil), out.keys[mid+1:]...),
				children: append([]*onode(nil), out.children[mid+1:]...),
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
func (t *oracleTree) Delete(name string) (nodesWritten int, ok bool) {
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

func (t *oracleTree) minKeys() int { return t.order / 2 }

func (t *oracleTree) del(n *onode, name string) (out *onode, written int, ok bool) {
	if n.leaf {
		i := sort.SearchStrings(n.keys, name)
		if i >= len(n.keys) || n.keys[i] != name {
			return n, 0, false
		}
		out = n.clone()
		out.keys = append(out.keys[:i], out.keys[i+1:]...)
		out.recs = append(out.recs[:i], out.recs[i+1:]...)
		return out, 1, true
	}
	ci := ochildIndex(n, name)
	child, cw, ok := t.del(n.children[ci], name)
	if !ok {
		return n, 0, false
	}
	out = n.clone()
	out.children[ci] = child
	written = cw + 1
	// Fix underflow in the updated child.
	if t.underflow(child) {
		written += t.rebalance(out, ci)
	}
	return out, written, true
}

func (t *oracleTree) underflow(n *onode) bool {
	if n.leaf {
		return len(n.keys) < t.minKeys()
	}
	return len(n.children) < t.minKeys()
}

// rebalance fixes an underflowing child ci of parent p (already a
// private copy) by borrowing from or merging with a sibling. Returns
// extra nodes written.
func (t *oracleTree) rebalance(p *onode, ci int) int {
	child := p.children[ci]
	// Try borrowing from the left sibling.
	if ci > 0 {
		left := p.children[ci-1]
		if t.canLend(left) {
			l, c := left.clone(), child.clone()
			if child.leaf {
				k := l.keys[len(l.keys)-1]
				r := l.recs[len(l.recs)-1]
				l.keys, l.recs = l.keys[:len(l.keys)-1], l.recs[:len(l.recs)-1]
				c.keys = append([]string{k}, c.keys...)
				c.recs = append([]Record{r}, c.recs...)
				p.keys[ci-1] = k
			} else {
				// Rotate through the parent separator.
				moved := l.children[len(l.children)-1]
				movedKey := l.keys[len(l.keys)-1]
				l.children = l.children[:len(l.children)-1]
				l.keys = l.keys[:len(l.keys)-1]
				c.children = append([]*onode{moved}, c.children...)
				c.keys = append([]string{p.keys[ci-1]}, c.keys...)
				p.keys[ci-1] = movedKey
			}
			p.children[ci-1], p.children[ci] = l, c
			return 2
		}
	}
	// Try borrowing from the right sibling.
	if ci < len(p.children)-1 {
		right := p.children[ci+1]
		if t.canLend(right) {
			r, c := right.clone(), child.clone()
			if child.leaf {
				k := r.keys[0]
				rec := r.recs[0]
				r.keys, r.recs = r.keys[1:], r.recs[1:]
				c.keys = append(c.keys, k)
				c.recs = append(c.recs, rec)
				p.keys[ci] = r.keys[0]
			} else {
				moved := r.children[0]
				movedKey := r.keys[0]
				r.children = r.children[1:]
				r.keys = r.keys[1:]
				c.children = append(c.children, moved)
				c.keys = append(c.keys, p.keys[ci])
				p.keys[ci] = movedKey
			}
			p.children[ci], p.children[ci+1] = c, r
			return 2
		}
	}
	// Merge with a sibling.
	li := ci - 1
	if li < 0 {
		li = ci // merge child with its right sibling instead
	}
	l, r := p.children[li].clone(), p.children[li+1]
	if l.leaf {
		l.keys = append(l.keys, r.keys...)
		l.recs = append(l.recs, r.recs...)
	} else {
		l.keys = append(l.keys, p.keys[li])
		l.keys = append(l.keys, r.keys...)
		l.children = append(l.children, r.children...)
	}
	p.keys = append(p.keys[:li], p.keys[li+1:]...)
	p.children[li] = l
	p.children = append(p.children[:li+1], p.children[li+2:]...)
	return 1
}

func (t *oracleTree) canLend(n *onode) bool {
	if n.leaf {
		return len(n.keys) > t.minKeys()
	}
	return len(n.children) > t.minKeys()
}
