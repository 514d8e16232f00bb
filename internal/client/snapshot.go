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
// checkpointing run and a restored run execute the same Pause → drain →
// Resume protocol, and Resume re-arms every client from its own RNG
// stream — so the post-resume arrival process is a pure function of the
// serialized draw counts, identical in both runs.

// Pause stops arrivals and wheels ahead of a checkpoint. The drain
// window that follows lets in-flight requests and retry chains retire.
func (p *Population) Pause() {
	p.stopped = true
	p.wheel.Stop()
}

// Resume re-arms every client and restarts the wheel. Executed
// identically after an in-place checkpoint and after a restore.
func (p *Population) Resume() {
	p.stopped = false
	p.wheel.Reset()
	p.armAll()
}

// Snap walks the population: its slabs and counters, then the hint
// table. Call only at a quiesce point — paused, drained (no outstanding
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
		if !p.stopped {
			panic("client: snapshot of a running population")
		}
		if len(p.retry) != 0 {
			panic("client: snapshot with outstanding retries")
		}
		if p.curLat != nil {
			panic("client: snapshot inside an act")
		}
	}
	p.stopped = true
	c.Same(len(p.draws), "client: population clients")
	for li := range p.draws {
		snap.U(c, &p.draws[li])
	}
	snap.U(c, &p.seq)
	snap.I(c, &p.nameSeq)
	snap.U(c, &p.issued)
	snap.U(c, &p.completed)
	snap.U(c, &p.leaseHits)
	snap.U(c, &p.hotLocal)
	snap.U(c, &p.hotRemote)
	snap.U(c, &p.retries)
	snap.U(c, &p.timedOut)
	queue(&p.churn, &p.churnHead, "client: churn ring")
	queue(&p.baseVictims, &p.baseHead, "client: base victim")
	p.hints.snap(c)
}

// snap walks the table sparsely, in the dense layout's terms: the slot
// count clients·ways, then a (client·ways+j, slot) pair for every
// occupied slot in ascending order. Region numbers are not written:
// reading hands regions out in file — that is, client — order, whatever
// order the checkpointed run met its clients in. Writing goes region by
// region, so a silent client costs one load.
func (t *HintTable) snap(c *snap.Codec) {
	ways := int(t.ways)
	total := len(t.region) * ways
	c.Same(total, "client: hint table slots")
	occupied := 0
	for client := range t.region {
		occupied += t.Len(client)
	}
	c.Len(&occupied)
	if c.Reading() {
		for idx := 0; occupied > 0 && c.Err() == nil; occupied-- {
			if snap.Index(c, &idx, total, "client: hint slot"); c.Err() == nil {
				snap.U(c, &t.claim(idx / ways)[idx%ways])
			}
		}
		return
	}
	for client := range t.region {
		region := t.slots(client)
		for j := range region {
			if idx := client*ways + j; region[j] != 0 {
				snap.Index(c, &idx, total, "client: hint slot")
				snap.U(c, &region[j])
			}
		}
	}
}
