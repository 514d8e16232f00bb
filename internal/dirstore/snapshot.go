package dirstore

import (
	"math/bits"

	"dynmds/internal/snap"
)

// Checkpoint codec. The exact node structure is serialized — not just
// the records — because future incremental-update costs (nodes written
// per mutation) depend on the tree shape, which in turn depends on the
// historical insertion order. A restored object must charge the same
// costs the original would have.

// Snap walks the tree structure; reading, t is a tree fresh from New.
// A restored tree is built from the file, so the file bounds what is
// built: the record total may not pass the declared size, and the
// recursion may not go deeper than a tree of that size can be — every
// node but the root has two children or two records at least (order >=
// MinOrder), so size records make at most bits.Len(size) levels.
func (t *Tree) Snap(c *snap.Codec) {
	snap.I(c, &t.order)
	c.Len(&t.size)
	if t.order < MinOrder {
		c.Failf("dirstore: snapshot order %d below minimum", t.order)
	}
	records := 0
	var walk func(n *node, levels int)
	walk = func(n *node, levels int) {
		if c.Err() != nil {
			return
		}
		c.Bool(&n.leaf)
		if n.leaf {
			snap.Slice(c, &n.recs)
			if records += len(n.recs); records > t.size {
				c.Failf("dirstore: snapshot holds more than its %d records", t.size)
				return
			}
			for i := range n.recs {
				rec := &n.recs[i]
				c.String(&rec.Name)
				snap.U(c, &rec.Ino)
				snap.U(c, &rec.Kind)
				snap.U(c, &rec.Mode)
				snap.I(c, &rec.Size)
			}
			if c.Reading() {
				n.keys = make([]string, len(n.recs))
				for i := range n.recs {
					n.keys[i] = n.recs[i].Name
				}
			}
			return
		}
		snap.Slice(c, &n.keys)
		for i := range n.keys {
			c.String(&n.keys[i])
		}
		if c.Reading() && c.Err() == nil {
			if levels <= 1 {
				c.Failf("dirstore: snapshot tree deeper than its %d records allow", t.size)
				return
			}
			n.children = make([]*node, len(n.keys)+1)
			for i := range n.children {
				n.children[i] = &node{cow: t.cow}
			}
		}
		for _, child := range n.children {
			walk(child, levels-1)
		}
	}
	walk(t.root, max(1, bits.Len(uint(t.size))))
	if c.Reading() && c.Err() == nil {
		if err := t.CheckInvariants(); err != nil {
			c.Failf("dirstore: snapshot failed invariants: %w", err)
		}
	}
}
