package client

import (
	"dynmds/internal/namespace"
	"dynmds/internal/snap"
)

// Endurance checkpointing for the open-loop traffic plane.
//
// The population's serialized state is its slabs and counters plus the
// hint table. Pending wheel timers are deliberately NOT
// serialized: a checkpoint happens at a quiesce point where both the
// checkpointing run and a restored run execute the same Stop → drain →
// Resume protocol, and Resume re-arms every client from its own RNG
// stream — so the post-resume arrival process is a pure function of the
// serialized draw counts, identical in both runs.

// Resume re-arms every client and restarts the wheel. Executed
// identically after an in-place checkpoint and after a restore.
func (p *Population) Resume() {
	p.reqs.stopped = false
	p.wheel.Reset()
	p.armAll()
}

// Snap walks the population: its slabs and counters, then the hint
// table. Call only at a quiesce point — stopped, drained (no outstanding
// retries), and outside any act — or, reading, on a freshly built
// population with the same config, whose inode references resolve
// against tree.
func (p *Population) Snap(c *snap.Codec, tree *namespace.Tree) {
	// queue walks the unconsumed tail of a FIFO of inodes; the restored
	// queue holds nothing else (whatever a fresh build seeded is gone).
	queue := func(q *[]*namespace.Inode, head *int, what string) {
		live := (*q)[*head:]
		snap.Slice(c, &live)
		for i := range live {
			tree.SnapRef(c, &live[i], what)
		}
		if c.Reading() {
			*q, *head = live, 0
		}
	}
	if !c.Reading() {
		if !p.reqs.stopped {
			panic("client: snapshot of a running population")
		}
		if p.reqs.Outstanding() != 0 {
			panic("client: snapshot with outstanding requests")
		}
		if p.curLat != nil {
			panic("client: snapshot inside a phase")
		}
	}
	p.reqs.stopped = true
	// Every client's count is written, the shared one for a client
	// without a word. Reading gives every client a word, and settle
	// keeps only those that differ from the least count or hold a record.
	c.Same(p.cfg.Clients, "client: population clients")
	reserved := cap(p.hints.word)
	if c.Reading() {
		p.hints.fill()
	}
	for li := range int32(p.cfg.Clients) {
		r := p.stream(li)
		if snap.U(c, &r.n); r.n > maxDraws {
			c.Failf("client: client %d has drawn %d times, past the 31-bit count", li, r.n)
		}
		if c.Err() != nil {
			break
		}
		if c.Reading() {
			p.keep(li, &r)
		}
	}
	snap.U(c, &p.reqs.seq)
	snap.I(c, &p.nameSeq)
	snap.U(c, &p.reqs.Issued)
	snap.U(c, &p.reqs.Completed)
	snap.U(c, &p.leaseHits)
	snap.U(c, &p.hotLocal)
	snap.U(c, &p.hotRemote)
	snap.U(c, &p.reqs.Retries)
	snap.U(c, &p.reqs.TimedOut)
	queue(&p.churn, &p.churnHead, "client: churn ring")
	queue(&p.baseVictims, &p.baseHead, "client: base victim")
	p.hints.snap(c, p.reqs.net.NumMDS())
	if c.Reading() && c.Err() == nil {
		p.hints.settle(reserved)
	}
}

// snap walks the table sparsely, in the dense layout's terms: the slot
// count clients·ways, then a (client·ways+j, slot) pair for every
// occupied slot in ascending order, each slot as one uint64 — key in the
// low word, authority in the high one with the replicated flag in its
// bit 31. Record numbers are not written: reading hands records out in
// file — that is, client — order, whatever order the checkpointed run
// met its clients in. Writing goes record by record, so a silent client
// costs one load. Reading refuses a slot the table could not have
// written for a cluster of mds nodes: an empty key, an authority past
// the cluster, a key outside its probe window.
func (t *HintTable) snap(c *snap.Codec, mds int) {
	ways := int(t.ways)
	total := t.clients * ways
	c.Same(total, "client: hint table slots")
	occupied := 0
	for client := range t.clients {
		occupied += t.Len(client)
	}
	c.Len(&occupied)
	if c.Reading() {
		for idx := 0; occupied > 0 && c.Err() == nil; occupied-- {
			var s uint64
			if snap.Index(c, &idx, total, "client: hint slot"); c.Err() == nil {
				snap.U(c, &s)
			}
			if c.Err() != nil {
				return
			}
			j, key, auth := uint32(idx%ways), uint32(s), uint32(s>>32)&^snapReplicated
			switch {
			case key == 0:
				c.Failf("client: hint slot %d holds no key", idx)
			case auth >= uint32(mds):
				c.Failf("client: hint slot %d names MDS %d of a cluster of %d", idx, auth, mds)
			case (j-t.home(key))&(t.ways-1) >= t.probe:
				c.Failf("client: hint slot %d lies outside its key's probe window", idx)
			default:
				v := auth
				if s>>32&snapReplicated != 0 {
					v |= hintReplicated
				}
				t.set(t.claim(idx/ways), j, key, v)
			}
		}
		return
	}
	for client := range t.clients {
		rec := t.record(client)
		if rec == nil {
			continue
		}
		for j := uint32(0); j < t.ways; j++ {
			if key := rec[t.head+j]; key != 0 {
				idx := client*ways + int(j)
				v := t.value(rec, j)
				s := uint64(v&^hintReplicated)<<32 | uint64(key)
				if v&hintReplicated != 0 {
					s |= snapReplicated << 32
				}
				snap.Index(c, &idx, total, "client: hint slot")
				snap.U(c, &s)
			}
		}
	}
}
