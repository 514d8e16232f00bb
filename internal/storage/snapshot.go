package storage

import "dynmds/internal/snap"

// Checkpoint codec. Serialized at a quiesce point, when both disks are
// idle — sim.Server's walk panics otherwise. The bounded log's index of
// newest records is not serialized; it is rebuilt from the ring window.

// Snap walks the store's mutable state; reading, a freshly built store
// with the same config.
func (s *Store) Snap(c *snap.Codec) {
	if s.cfg.Pool != nil {
		panic("storage: checkpointing the shared-pool ablation is not supported")
	}
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
		pos := (l.head + i) % l.capacity
		snap.U(c, &l.ring[pos])
		if c.Reading() {
			l.note(pos)
		}
	}
}
