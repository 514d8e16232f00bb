package cache

import (
	"dynmds/internal/namespace"
	"dynmds/internal/snap"
)

// Checkpoint codec. Exact LRU order is state: eviction victims depend
// on it, so both segments are serialized MRU-first and relinked
// verbatim on restore. Pin counts are not serialized — they are
// recomputed from the parent links, which also re-validates the
// cached-subset-is-a-tree invariant. Neither are stamps and cursors:
// any cursor that keeps its invariant yields the same victims, so
// restore renumbers each segment and parks its cursor at the tail.

// DropDestroyed removes every unpinned entry whose inode has been
// destroyed (unlinked), returning the count removed. Replicas of an
// unlinked inode can outlive it on non-author nodes until eviction; a
// checkpoint garbage-collects them first, in both the checkpointing run
// and the baseline, so the two stay in lockstep and every serialized
// entry resolves against the restored namespace.
func (c *Cache) DropDestroyed(dead func(namespace.InodeID) bool) int {
	c.forEach(func(e *Entry) {
		if dead(e.Ino.ID) {
			c.scratch = append(c.scratch, e)
		}
	})
	return c.unwind()
}

// Snap walks the cache; reading, a freshly built, empty cache of the
// same capacity, whose inode references resolve against tree. The two
// directions share the per-entry fields and nothing else: writing
// follows each segment's links, reading relinks the entries in the
// order it meets them.
func (c *Cache) Snap(sc *snap.Codec, tree *namespace.Tree) {
	sc.Same(c.capacity, "cache: capacity")
	if sc.Reading() && c.n != 0 {
		sc.Failf("cache: restore into a non-empty cache")
	}
	snap.U(sc, &c.Stats.Hits)
	snap.U(sc, &c.Stats.Misses)
	snap.U(sc, &c.Stats.Inserts)
	snap.U(sc, &c.Stats.Evicts)
	snap.U(sc, &c.Stats.PinBlockedEvicts)
	fields := func(e *Entry) (parent namespace.InodeID) {
		tree.SnapRef(sc, &e.Ino, "cache: entry")
		snap.Index(sc, &e.Class, len(c.classCount), "cache: class")
		sc.Bool(&e.detached)
		if e.parent != nil {
			parent = e.parent.Ino.ID
		}
		snap.U(sc, &parent)
		return parent
	}
	type pending struct {
		e      *Entry
		parent namespace.InodeID
	}
	var all []pending
	for li, l := range [...]*list{&c.hot, &c.warm} {
		n := l.n
		sc.Len(&n)
		if !sc.Reading() {
			for e := l.head; e != nil; e = e.next {
				fields(e)
			}
			continue
		}
		var prev *Entry
		for i := 0; i < n; i++ {
			e := &Entry{hot: li == 0, stamp: uint64(n - i), prev: prev}
			parent := fields(e)
			if sc.Err() != nil {
				return
			}
			if c.lookup(e.Ino.ID) != nil {
				sc.Failf("cache: snapshot holds inode %d twice", e.Ino.ID)
				return
			}
			c.store(e.Ino.ID, e)
			c.classCount[e.Class]++
			all = append(all, pending{e, parent})
			if prev != nil {
				prev.next = e
			} else {
				l.head = e
			}
			prev = e
		}
		l.tail, l.cursor = prev, prev
		l.n, l.stamp = n, uint64(n)
	}
	for _, p := range all {
		if p.parent == 0 {
			continue
		}
		pe := c.lookup(p.parent)
		if pe == nil {
			sc.Failf("cache: snapshot entry %d pins uncached parent %d", p.e.Ino.ID, p.parent)
			return
		}
		p.e.parent = pe
		if pe.pins++; pe.pins == 1 {
			c.pinned++
		}
	}
}
