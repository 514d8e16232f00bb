package client

import (
	"fmt"

	"dynmds/internal/namespace"
	"dynmds/internal/snap"
)

// Endurance checkpointing for the open-loop traffic plane.
//
// The population's serialized state is the per-shard slabs and counters
// plus the shared hint table. Pending wheel timers are deliberately NOT
// serialized: a checkpoint happens at a quiesce point where both the
// checkpointing run and a restored run execute the same Pause → drain →
// Resume protocol, and Resume re-arms every client from its own RNG
// stream — so the post-resume arrival process is a pure function of the
// serialized RNG slabs, identical in both runs.

// Pause stops arrivals and wheels ahead of a checkpoint. The drain
// window that follows lets in-flight requests and retry chains retire.
func (p *Population) Pause() {
	for _, s := range p.shards {
		s.stopped = true
		s.wheel.Stop()
	}
}

// Resume re-arms every client and restarts the wheels. Executed
// identically after an in-place checkpoint and after a restore.
func (p *Population) Resume() {
	for _, s := range p.shards {
		s.stopped = false
		s.wheel.Reset()
		s.armAll()
	}
}

// SnapshotTo serializes the population. Call only at a quiesce point:
// paused, drained (no outstanding retries), and outside any act.
func (p *Population) SnapshotTo(w *snap.Writer) {
	w.Int(len(p.shards))
	for _, s := range p.shards {
		if !s.stopped {
			panic("client: snapshot of a running population")
		}
		if len(s.retry) != 0 {
			panic("client: snapshot with outstanding retries")
		}
		if s.curLat != nil {
			panic("client: snapshot inside an act")
		}
		w.Int(len(s.rng))
		for _, v := range s.rng {
			w.U64(v)
		}
		w.U64(s.seq)
		w.Int(s.nameSeq)
		w.U64(s.issued)
		w.U64(s.completed)
		w.U64(s.leaseHits)
		w.U64(s.hotLocal)
		w.U64(s.hotRemote)
		w.U64(s.retries)
		w.U64(s.timedOut)
		w.U64(s.wheel.Ticks)
		w.U64(s.wheel.Fired)
		n, mean, m2, mn, mx := s.welford.State()
		w.I64(n)
		w.F64(mean)
		w.F64(m2)
		w.F64(mn)
		w.F64(mx)
		nb := 0
		s.lat.State(func(int, uint64) { nb++ })
		w.Int(nb)
		s.lat.State(func(idx int, count uint64) {
			w.Int(idx)
			w.U64(count)
		})
		w.Int(len(s.churn) - s.churnHead)
		for _, c := range s.churn[s.churnHead:] {
			w.U64(uint64(c.ID))
		}
		w.Int(len(s.baseVictims) - s.baseHead)
		for _, v := range s.baseVictims[s.baseHead:] {
			w.U64(uint64(v.ID))
		}
	}
	p.hints.snapshotTo(w)
}

// RestoreFrom applies a snapshot onto a freshly built population with
// the same config and shard count; resolve maps inode IDs back to the
// restored namespace.
func (p *Population) RestoreFrom(r *snap.Reader, resolve func(namespace.InodeID) (*namespace.Inode, bool)) error {
	if k := r.Int(); k != len(p.shards) {
		return fmt.Errorf("client: snapshot has %d population shards, cluster has %d", k, len(p.shards))
	}
	for _, s := range p.shards {
		if n := r.Int(); n != len(s.rng) {
			return fmt.Errorf("client: snapshot shard has %d clients, built shard has %d", n, len(s.rng))
		}
		for i := range s.rng {
			s.rng[i] = r.U64()
		}
		s.seq = r.U64()
		s.nameSeq = r.Int()
		s.issued = r.U64()
		s.completed = r.U64()
		s.leaseHits = r.U64()
		s.hotLocal = r.U64()
		s.hotRemote = r.U64()
		s.retries = r.U64()
		s.timedOut = r.U64()
		s.wheel.Ticks = r.U64()
		s.wheel.Fired = r.U64()
		s.welford.SetState(r.I64(), r.F64(), r.F64(), r.F64(), r.F64())
		nb := r.Int()
		for i := 0; i < nb; i++ {
			idx := r.Int()
			s.lat.SetBucket(idx, r.U64())
		}
		nc := r.Int()
		s.churn = make([]*namespace.Inode, 0, nc)
		s.churnHead = 0
		for i := 0; i < nc; i++ {
			id := namespace.InodeID(r.U64())
			n, ok := resolve(id)
			if !ok {
				return fmt.Errorf("client: churn-ring inode %d unresolvable", id)
			}
			s.churn = append(s.churn, n)
		}
		// The restored pool replaces whatever the fresh build seeded: only
		// the victims the checkpointing run had not yet consumed remain.
		nv := r.Int()
		s.baseVictims = make([]*namespace.Inode, 0, nv)
		s.baseHead = 0
		for i := 0; i < nv; i++ {
			id := namespace.InodeID(r.U64())
			n, ok := resolve(id)
			if !ok {
				return fmt.Errorf("client: base-victim inode %d unresolvable", id)
			}
			s.baseVictims = append(s.baseVictims, n)
		}
		s.stopped = true
	}
	return p.hints.restoreFrom(r)
}

// snapshotTo writes the table sparsely, in the dense layout's terms: the
// slot count clients·ways, then a (client·ways+j, slot) pair for every
// occupied slot in ascending order. Region numbers are not written.
func (t *HintTable) snapshotTo(w *snap.Writer) {
	nz := 0
	for c := range t.region {
		nz += t.Len(c)
	}
	w.Int(len(t.region) * int(t.ways))
	w.Int(nz)
	for c := range t.region {
		for j, v := range t.slots(c) {
			if v != 0 {
				w.Int(c*int(t.ways) + j)
				w.U64(v)
			}
		}
	}
}

// restoreFrom fills a freshly built table of the same shape. Regions
// are handed out in client order, whatever order the checkpointed run
// met its clients in.
func (t *HintTable) restoreFrom(r *snap.Reader) error {
	total := len(t.region) * int(t.ways)
	if n := r.Int(); n != total {
		return fmt.Errorf("client: snapshot hint table has %d slots, built table has %d", n, total)
	}
	for nz := r.Int(); nz > 0; nz-- {
		idx, v := r.Int(), r.U64()
		if idx < 0 || idx >= total {
			return fmt.Errorf("client: snapshot hint slot %d outside the table's %d", idx, total)
		}
		t.claim(idx / int(t.ways))[idx%int(t.ways)] = v
	}
	return nil
}
