package storage

import (
	"dynmds/internal/dirstore"
	"dynmds/internal/namespace"
	"dynmds/internal/snap"
)

// Checkpoint codec. Serialized at a quiesce point, when both disks are
// idle — sim.Server's walk panics otherwise. The bounded log's live map
// is not serialized; it is rebuilt from the ring contents.

// Snap walks the store's mutable state; reading, a freshly built store
// with the same config.
func (s *Store) Snap(c *snap.Codec) {
	if s.cfg.Pool != nil {
		panic("storage: checkpointing the shared-pool ablation is not supported")
	}
	snap.U(c, &s.Stats.InodeReads)
	snap.U(c, &s.Stats.DirReads)
	snap.U(c, &s.Stats.RecordsRead)
	snap.U(c, &s.Stats.LogAppends)
	snap.U(c, &s.Stats.TierWrites)
	c.F64(&s.slow)
	s.readDisk.Snap(c)
	s.logDisk.Snap(c)

	// Bounded log: head and the valid window oldest-first. Ring slots
	// outside the window are never read before being overwritten, so
	// their content does not matter, but head does (it fixes where future
	// appends land).
	l := s.log
	c.Same(l.capacity, "storage: log capacity")
	snap.Index(c, &l.head, l.capacity, "storage: log head")
	c.Len(&l.n)
	if l.n > l.capacity {
		c.Failf("storage: snapshot log window of %d in a ring of %d", l.n, l.capacity)
		return
	}
	for i := 0; i < l.n; i++ {
		slot := &l.ring[(l.head+i)%l.capacity]
		snap.U(c, slot)
		if c.Reading() {
			l.live[*slot]++
		}
	}

	n := 0
	if s.Dirs != nil {
		n = len(s.Dirs.trees)
	}
	if !c.OptLen(s.Dirs != nil, &n, "storage: directory objects") {
		return
	}
	snap.U(c, &s.Dirs.NodesWritten)
	snap.U(c, &s.Dirs.Updates)
	// Written in ascending directory order; read as the file gives them,
	// each into a tree built for it (t == nil).
	object := func(dir namespace.InodeID, t *dirstore.Tree) {
		snap.U(c, &dir)
		if t == nil {
			t = s.Dirs.tree(dir)
		}
		t.Snap(c)
	}
	if !c.Reading() {
		s.Dirs.ForEach(object)
		return
	}
	for ; n > 0 && c.Err() == nil; n-- {
		object(0, nil)
	}
}
