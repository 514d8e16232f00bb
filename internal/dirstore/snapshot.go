package dirstore

import (
	"fmt"

	"dynmds/internal/namespace"
	"dynmds/internal/snap"
)

// Checkpoint codec. The exact node structure is serialized — not just
// the records — because future incremental-update costs (nodes written
// per mutation) depend on the tree shape, which in turn depends on the
// historical insertion order. A restored object must charge the same
// costs the original would have.

// SnapshotTo serializes the tree structure.
func (t *Tree) SnapshotTo(w *snap.Writer) {
	w.Int(t.order)
	w.Int(t.size)
	var enc func(n *node)
	enc = func(n *node) {
		w.Bool(n.leaf)
		if n.leaf {
			w.Int(len(n.recs))
			for _, rec := range n.recs {
				w.String(rec.Name)
				w.U64(uint64(rec.Ino))
				w.U64(uint64(rec.Kind))
				w.U64(uint64(rec.Mode))
				w.I64(rec.Size)
			}
			return
		}
		w.Int(len(n.keys))
		for _, k := range n.keys {
			w.String(k)
		}
		for _, c := range n.children {
			enc(c)
		}
	}
	enc(t.root)
}

// DecodeTree reads a tree serialized by SnapshotTo.
func DecodeTree(r *snap.Reader) (*Tree, error) {
	order := r.Int()
	size := r.Int()
	if order < MinOrder {
		return nil, fmt.Errorf("dirstore: snapshot order %d below minimum", order)
	}
	cow := new(cowToken)
	var dec func() *node
	dec = func() *node {
		n := &node{cow: cow, leaf: r.Bool()}
		if n.leaf {
			k := r.Int()
			n.keys = make([]string, k)
			n.recs = make([]Record, k)
			for i := 0; i < k; i++ {
				n.recs[i].Name = r.String()
				n.recs[i].Ino = namespace.InodeID(r.U64())
				n.recs[i].Kind = namespace.Kind(r.U64())
				n.recs[i].Mode = namespace.Mode(r.U64())
				n.recs[i].Size = r.I64()
				n.keys[i] = n.recs[i].Name
			}
			return n
		}
		k := r.Int()
		n.keys = make([]string, k)
		for i := 0; i < k; i++ {
			n.keys[i] = r.String()
		}
		n.children = make([]*node, k+1)
		for i := range n.children {
			n.children[i] = dec()
		}
		return n
	}
	t := &Tree{root: dec(), order: order, size: size, cow: cow}
	if err := t.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("dirstore: snapshot failed invariants: %w", err)
	}
	return t, nil
}
