package client

import (
	"math"

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
// serialized draw counts, identical in both runs. A count is written as
// the splitmix64 state it stands for, origin + n·gamma.

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

// Snap walks the population: the per-shard slabs and counters, then the
// shared hint table. Call only at a quiesce point — paused, drained (no
// outstanding retries), and outside any act — or, reading, on a freshly
// built population with the same config and shard count, whose inode
// references resolve against tree.
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
	c.Same(len(p.shards), "client: population shards")
	for _, s := range p.shards {
		if !c.Reading() {
			if !s.stopped {
				panic("client: snapshot of a running population")
			}
			if len(s.retry) != 0 {
				panic("client: snapshot with outstanding retries")
			}
			if s.curLat != nil {
				panic("client: snapshot inside an act")
			}
		}
		s.stopped = true
		c.Same(len(s.draws), "client: shard clients")
		for li := range s.draws {
			s.snapDraws(c, li)
		}
		snap.U(c, &s.seq)
		snap.I(c, &s.nameSeq)
		snap.U(c, &s.issued)
		snap.U(c, &s.completed)
		snap.U(c, &s.leaseHits)
		snap.U(c, &s.hotLocal)
		snap.U(c, &s.hotRemote)
		snap.U(c, &s.retries)
		snap.U(c, &s.timedOut)
		snap.U(c, &s.wheel.Ticks)
		snap.U(c, &s.wheel.Fired)
		queue(&s.churn, &s.churnHead, "client: churn ring")
		queue(&s.baseVictims, &s.baseHead, "client: base victim")
	}
	p.hints.snap(c)
}

// snapDraws carries one client's draw count as its RNG state. Reading,
// a state off the client's stream — n = (state − origin)·gamma⁻¹ past
// 32 bits — is refused.
func (s *popShard) snapDraws(c *snap.Codec, li int) {
	origin := s.origin(li)
	state := origin + uint64(s.draws[li])*gamma
	snap.U(c, &state)
	if !c.Reading() || c.Err() != nil {
		return
	}
	if n := (state - origin) * gammaInv; n > math.MaxUint32 {
		c.Failf("client: client %d: RNG state %#x is off its stream", li*s.k+s.shard, state)
	} else {
		s.draws[li] = uint32(n)
	}
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
