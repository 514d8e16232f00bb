package cache

import (
	"fmt"

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

// SnapshotTo serializes the cache.
func (c *Cache) SnapshotTo(w *snap.Writer) {
	w.Int(c.capacity)
	w.U64(c.Stats.Hits)
	w.U64(c.Stats.Misses)
	w.U64(c.Stats.Inserts)
	w.U64(c.Stats.Evicts)
	w.U64(c.Stats.PinBlockedEvicts)
	for _, l := range [...]*list{&c.hot, &c.warm} {
		w.Int(l.n)
		for e := l.head; e != nil; e = e.next {
			w.U64(uint64(e.Ino.ID))
			w.U64(uint64(e.Class))
			w.Bool(e.detached)
			if e.parent != nil {
				w.U64(uint64(e.parent.Ino.ID))
			} else {
				w.U64(0)
			}
		}
	}
}

// RestoreFrom applies a snapshot onto a freshly built, empty cache with
// the same capacity; resolve maps inode IDs to the restored namespace.
func (c *Cache) RestoreFrom(r *snap.Reader, resolve func(namespace.InodeID) (*namespace.Inode, bool)) error {
	if cp := r.Int(); cp != c.capacity {
		return fmt.Errorf("cache: snapshot capacity %d, built %d", cp, c.capacity)
	}
	if c.n != 0 {
		return fmt.Errorf("cache: restore into a non-empty cache")
	}
	c.Stats.Hits = r.U64()
	c.Stats.Misses = r.U64()
	c.Stats.Inserts = r.U64()
	c.Stats.Evicts = r.U64()
	c.Stats.PinBlockedEvicts = r.U64()
	type pending struct {
		e      *Entry
		parent namespace.InodeID
	}
	var all []pending
	for li, l := range [...]*list{&c.hot, &c.warm} {
		n := r.Int()
		var prev *Entry
		for i := 0; i < n; i++ {
			id := namespace.InodeID(r.U64())
			cl := Class(r.U64())
			detached := r.Bool()
			parent := namespace.InodeID(r.U64())
			ino, ok := resolve(id)
			if !ok {
				return fmt.Errorf("cache: snapshot entry %d unresolvable", id)
			}
			e := &Entry{Ino: ino, Class: cl, hot: li == 0, detached: detached, stamp: uint64(n - i)}
			c.store(id, e)
			c.classCount[cl]++
			all = append(all, pending{e, parent})
			// Relink in serialized (MRU-first) order.
			e.prev = prev
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
			return fmt.Errorf("cache: snapshot entry %d pins uncached parent %d", p.e.Ino.ID, p.parent)
		}
		p.e.parent = pe
		if pe.pins++; pe.pins == 1 {
			c.pinned++
		}
	}
	return nil
}
