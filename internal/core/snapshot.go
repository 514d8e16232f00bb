package core

import (
	"cmp"
	"slices"

	"dynmds/internal/namespace"
	"dynmds/internal/snap"
)

// Checkpoint codec for the control plane: balancer bookkeeping and the
// traffic control replication count.
// The balancer's ticker is not serialized — the endurance quiesce
// protocol stops it before a checkpoint and restarts it identically in
// both the checkpointing run and a restored one.

// Snap walks the balancer's mutable state; reading, a freshly built
// balancer whose inode references resolve against tree.
func (b *Balancer) Snap(c *snap.Codec, tree *namespace.Tree) {
	snap.I(c, &b.Migrations)
	type imp struct {
		root *namespace.Inode
		src  int
	}
	var imps []imp
	if !c.Reading() {
		imps = make([]imp, 0, len(b.imports))
		for root, src := range b.imports {
			imps = append(imps, imp{root, src})
		}
		slices.SortFunc(imps, func(x, y imp) int { return cmp.Compare(x.root.ID, y.root.ID) })
	}
	snap.Slice(c, &imps)
	for i := range imps {
		tree.SnapRef(c, &imps[i].root, "core: import root")
		snap.Index(c, &imps[i].src, len(b.nodes), "core: import source")
		if c.Reading() && c.Err() == nil {
			b.imports[imps[i].root] = imps[i].src
		}
	}
}

// Snap walks the policy's replication count; thresholds come from
// config.
func (tc *TrafficControl) Snap(c *snap.Codec) {
	snap.U(c, &tc.Replications)
}
