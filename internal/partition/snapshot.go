package partition

import (
	"dynmds/internal/metrics"
	"dynmds/internal/namespace"
	"dynmds/internal/snap"
)

// Checkpoint codec for the subtree table and the per-inode tags.
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
			if _, dup := t.assign[root]; dup {
				c.Failf("partition: delegation: %s listed twice", root)
				return
			}
			t.assign[root] = mds
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
	for ; n > 0 && c.Err() == nil; n-- {
		delegation(nil, 0)
	}
}

// snapCounter walks a decay counter that exists only once touched.
func snapCounter(c *snap.Codec, touched *bool, d *metrics.Decay) {
	if c.Bool(touched); *touched {
		d.Snap(c)
	}
}

// SnapTags walks the tags of every inode that carries any, one block per
// inode in deterministic tree walk order; reading applies them onto the
// restored tree of a cluster of the given number of nodes. A block holds
// the inode's Tags record and the sparse state kept beside it: fwd,
// traffic control's forward counters (nil without traffic control), and
// unflushed, the MDS nodes' unflushed-writer masks. Lazy Hybrid's
// epochs are not carried: its runs take no checkpoints (cluster's
// EndureCheck). Destroyed inodes are unreachable and therefore excluded
// — their tags can no longer influence the run.
func SnapTags(c *snap.Codec, tree *namespace.Tree, nodes int, fwd map[namespace.InodeID]metrics.Decay, unflushed map[namespace.InodeID]uint64) {
	// An inode has a block when any of its state is set (Pop is only
	// ever written with PopTouched).
	live := func(n *namespace.Inode) bool {
		_, forwarded := fwd[n.ID]
		return n.Tags != (Tags{}) || forwarded || unflushed[n.ID] != 0
	}
	// One pass before the blocks: counts them to write; to read, clears
	// any memo written between construction and restore (an authority
	// lookup made while the cluster was assembled) so post-restore memo
	// state is exactly the serialized state, nothing more.
	count := 0
	tree.Walk(func(n *namespace.Inode) bool {
		switch {
		case c.Reading():
			n.Tags.AuthEpoch, n.Tags.Auth = 0, 0
		case live(n):
			count++
		}
		return true
	})
	if c.Reading() {
		clear(fwd)
		clear(unflushed)
	}
	c.Len(&count)
	block := func(ino *namespace.Inode) {
		tree.SnapRef(c, &ino, "partition: tags")
		if c.Err() != nil {
			return
		}
		tg := &ino.Tags
		popTouched, replicated, hashed := tg.Has(namespace.PopTouched), tg.Has(namespace.ReplicatedAll), tg.Has(namespace.HashedDir)
		fp, forwarded := fwd[ino.ID]
		writers := unflushed[ino.ID]
		auth := int32(tg.Auth)
		snapCounter(c, &popTouched, &tg.Pop)
		snapCounter(c, &forwarded, &fp)
		c.Bool(&replicated)
		c.Bool(&hashed)
		snap.U(c, &tg.ReplicaSet)
		snap.U(c, &writers)
		snap.U(c, &tg.AuthEpoch)
		snap.Index(c, &auth, nodes, "partition: authority memo")
		switch {
		case !c.Reading() || c.Err() != nil:
			return
		case forwarded && fwd == nil:
			c.Failf("partition: a forward counter on %s without traffic control", ino)
			return
		}
		tg.Set(namespace.PopTouched, popTouched)
		tg.Set(namespace.ReplicatedAll, replicated)
		tg.Set(namespace.HashedDir, hashed)
		tg.Auth = uint16(auth)
		if forwarded {
			fwd[ino.ID] = fp
		}
		if writers != 0 {
			unflushed[ino.ID] = writers
		}
	}
	if c.Reading() {
		for ; count > 0 && c.Err() == nil; count-- {
			block(nil)
		}
		return
	}
	tree.Walk(func(n *namespace.Inode) bool {
		if live(n) {
			block(n)
		}
		return true
	})
}
