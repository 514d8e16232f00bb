package mds

import (
	"fmt"

	"dynmds/internal/namespace"
	"dynmds/internal/snap"
)

// Checkpoint codec. Called only at a quiesce point: no request is in
// the pipeline (CPU idle, no pending fetches, no outstanding forwards),
// so the node's state is its cache, store, counters, and the small
// bookkeeping maps. Orphans — inodes unlinked while open — cannot be
// serialized (a destroyed inode is not resolvable by ID on restore);
// the endurance workload issues no opens, so the quiesce check treats a
// non-empty orphan table as a hard error.

// statFields enumerates every Stats counter in serialization order.
func (s *Stats) statFields() []*uint64 {
	return []*uint64{
		&s.ClientArrivals, &s.Served, &s.ReplicaServes,
		&s.Forwarded, &s.CacheMissLoads, &s.RemoteFetches,
		&s.Commits,
		&s.FetchTimeouts, &s.FwdTimeouts, &s.DeadLetters,
		&s.WritesAbsorbed,
		&s.LeaseGrants, &s.LeaseRecalls, &s.LeaseAcks, &s.ReplicaFanouts,
	}
}

// CheckQuiesced verifies the node holds no in-flight work: the pipeline
// maps are empty and the CPU is idle. The endurance plane calls it on
// every node after the drain window, before touching any state.
func (m *MDS) CheckQuiesced() error {
	if n := len(m.pending); n != 0 {
		return fmt.Errorf("mds %d: %d pending record fetches", m.id, n)
	}
	if n := len(m.pendingDir); n != 0 {
		return fmt.Errorf("mds %d: %d pending directory fetches", m.id, n)
	}
	if n := len(m.pendingFwd); n != 0 {
		return fmt.Errorf("mds %d: %d forwards awaiting ack", m.id, n)
	}
	if n := len(m.orphans); n != 0 {
		return fmt.Errorf("mds %d: %d orphaned inodes (opens in an endurance run?)", m.id, n)
	}
	return nil
}

// Snap walks the node; reading, a freshly built node with the same
// config, whose inode references resolve against the restored
// namespace.
func (m *MDS) Snap(c *snap.Codec) {
	if err := m.CheckQuiesced(); err != nil {
		panic("mds: snapshot before quiesce: " + err.Error())
	}
	c.Bool(&m.failed)
	c.F64(&m.slow)
	snap.U(c, &m.fwdSeq)
	m.opsRate.Snap(c)
	m.missRate.Snap(c)
	m.cpu.Snap(c)
	for _, f := range m.Stats.statFields() {
		snap.U(c, f)
	}
	snap.Map(c, m.opens, func(id *namespace.InodeID, n *int) {
		snap.U(c, id)
		snap.I(c, n)
	})
	snap.Map(c, m.sizePending, func(id *namespace.InodeID, size *int64) {
		snap.U(c, id)
		snap.I(c, size)
	})
	m.cache.Snap(c, m.cluster.Tree())
	m.store.Snap(c)
}
