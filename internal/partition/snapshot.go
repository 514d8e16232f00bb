package partition

import (
	"dynmds/internal/metrics"
	"dynmds/internal/namespace"
	"dynmds/internal/snap"
)

// Checkpoint codec for the subtree table and the per-inode tag blocks.
// Authority memos (AuthEpoch/Auth) ARE serialized: although they look
// like a cache, they are behavioral state. A rename moves an inode
// without bumping the table epoch, so a memo written before the rename
// keeps answering with the old authority until the next delegation
// change — and every node honors it. Rebuilding memos on restore would
// resolve the *current* ancestor chain and steer forwards differently
// than the uninterrupted run.

// Snap walks the table's epoch and assignments, node by node in root
// order. Reading replaces the assignments: the built table may already
// carry an initial partition (construction reapplies it); it is
// discarded — the snapshot is authoritative.
func (t *SubtreeTable) Snap(c *snap.Codec, tree *namespace.Tree) {
	c.Same(t.n, "partition: table nodes")
	snap.U(c, &t.epoch)
	n := len(t.assign)
	c.Len(&n)
	delegation := func(root *namespace.Inode, mds int) {
		tree.SnapRef(c, &root, "partition: delegation")
		snap.Index(c, &mds, t.n, "partition: delegation")
		if c.Reading() && c.Err() == nil {
			t.assign[root] = mds
			t.byMDS[mds][root] = true
		}
	}
	if !c.Reading() {
		for mds := 0; mds < t.n; mds++ {
			for _, root := range t.RootsOf(mds) {
				delegation(root, mds)
			}
		}
		return
	}
	t.assign = make(map[*namespace.Inode]int)
	for i := range t.byMDS {
		t.byMDS[i] = make(map[*namespace.Inode]bool)
	}
	for ; n > 0 && c.Err() == nil; n-- {
		delegation(nil, 0)
	}
}

// tagsLive reports whether a tag block carries any restorable state.
func tagsLive(tg *Tags) bool {
	return tg.PopTouched || tg.FwdTouched || tg.ReplicatedAll ||
		tg.LHDirEpoch != 0 || tg.LHApplied != 0 || tg.HashedDir ||
		tg.ReplicaSet != 0 || tg.UnflushedWriters != 0 ||
		tg.AuthEpoch != 0 || tg.Auth != 0
}

// snapCounter walks a decay counter that exists only once touched.
func snapCounter(c *snap.Codec, touched *bool, d *metrics.Decay) {
	if c.Bool(touched); *touched {
		d.Snap(c)
	}
}

// SnapTags walks every live tag block, in deterministic tree walk
// order; reading applies them onto the restored tree of a cluster of
// the given number of nodes. Destroyed inodes are unreachable and
// therefore excluded — their tags can no longer influence the run.
func SnapTags(c *snap.Codec, tree *namespace.Tree, nodes int) {
	// One pass before the blocks: counts them to write; to read, clears
	// any memo written between construction and restore (an authority
	// lookup made while the cluster was assembled) so post-restore memo
	// state is exactly the serialized state, nothing more.
	count := 0
	tree.Walk(func(n *namespace.Inode) bool {
		tg, ok := n.Aux.(*Tags)
		switch {
		case !ok:
		case c.Reading():
			tg.AuthEpoch, tg.Auth = 0, 0
		case tagsLive(tg):
			count++
		}
		return true
	})
	c.Len(&count)
	block := func(ino *namespace.Inode) {
		tree.SnapRef(c, &ino, "partition: tags")
		if c.Err() != nil {
			return
		}
		tg := TagsOf(ino)
		snapCounter(c, &tg.PopTouched, &tg.Pop)
		snapCounter(c, &tg.FwdTouched, &tg.FwdPop)
		c.Bool(&tg.ReplicatedAll)
		snap.U(c, &tg.LHDirEpoch)
		snap.U(c, &tg.LHApplied)
		c.Bool(&tg.HashedDir)
		snap.U(c, &tg.ReplicaSet)
		snap.U(c, &tg.UnflushedWriters)
		snap.U(c, &tg.AuthEpoch)
		snap.Index(c, &tg.Auth, nodes, "partition: authority memo")
	}
	if c.Reading() {
		for ; count > 0 && c.Err() == nil; count-- {
			block(nil)
		}
		return
	}
	tree.Walk(func(n *namespace.Inode) bool {
		if tg, ok := n.Aux.(*Tags); ok && tagsLive(tg) {
			block(n)
		}
		return true
	})
}
