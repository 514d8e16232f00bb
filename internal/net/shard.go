package net

import (
	"slices"

	"dynmds/internal/sim"
)

// fabricShards is the per-shard partition of the fabric's mutable state
// for conservative-parallel execution. Ownership rules:
//
//   - link rows are owned by their sending shard (the client-edge row,
//     whose senders span shards, splits into per-shard lanes);
//   - class counters live in per-shard lanes: Sent/Dropped/Bytes on the
//     sender's lane, Delivered on the receiver's;
//   - envelopes come from per-shard pools, checked out either by the
//     sending shard (intra-shard hop) or at the barrier for the
//     destination shard (cross-shard hop);
//   - cross-shard deliveries queue as by-value entries in single-writer
//     (src, dst) mailboxes and merge into destination heaps at barriers.
type fabricShards struct {
	k        int
	shardOf  []int // endpoint -> owning shard; client-edge entry unused
	engines  []*sim.Engine
	class    [][NumClasses]ClassStats
	edgeRows [][]Link
	pools    [][]*envelope
	live     []int
	mail     [][]mailbox // [src][dst]
	drainIdx []int
}

// mailbox is one SPSC cross-shard delivery queue: the source shard
// appends during a window, the barrier drains. seq orders entries with
// equal delivery times by send order.
type mailbox struct {
	entries []mailEntry
	seq     uint64
}

// mailEntry is one pending cross-shard delivery, held by value so the
// sender allocates nothing; the destination-pool envelope is attached at
// the barrier.
type mailEntry struct {
	at    sim.Time
	seq   uint64
	class Class
	fn    sim.EventFunc
	a, b  any
}

// Shard partitions the fabric across k shards. shardOf maps each MDS
// endpoint to its shard and engines supplies the per-shard engines; both
// must have matching shapes. Must be called before any traffic flows.
func (f *Fabric) Shard(k int, shardOf []int, engines []*sim.Engine) {
	if k < 2 {
		panic("net: fabric sharding needs k >= 2")
	}
	if len(shardOf) < f.n || len(engines) != k {
		panic("net: fabric shard shapes do not match")
	}
	sh := &fabricShards{
		k:        k,
		shardOf:  shardOf,
		engines:  engines,
		class:    make([][NumClasses]ClassStats, k),
		edgeRows: make([][]Link, k),
		pools:    make([][]*envelope, k),
		live:     make([]int, k),
		mail:     make([][]mailbox, k),
		drainIdx: make([]int, k),
	}
	for i := 0; i < k; i++ {
		sh.edgeRows[i] = make([]Link, f.n+1)
		sh.mail[i] = make([]mailbox, k)
	}
	f.sh = sh
}

// Lookahead returns the latency model's conservative window bound.
func (f *Fabric) Lookahead() sim.Time { return f.model.Lookahead() }

// PendingMail reports the number of queued cross-shard deliveries not
// yet merged (for tests and leak accounting).
func (f *Fabric) PendingMail() int {
	if f.sh == nil {
		return 0
	}
	n := 0
	for src := range f.sh.mail {
		for dst := range f.sh.mail[src] {
			n += len(f.sh.mail[src][dst].entries)
		}
	}
	return n
}

func cmpMail(x, y mailEntry) int {
	if x.at != y.at {
		if x.at < y.at {
			return -1
		}
		return 1
	}
	if x.seq != y.seq {
		if x.seq < y.seq {
			return -1
		}
		return 1
	}
	return 0
}

// DrainMail merges every mailbox into its destination shard's event
// heap. Runs on the barrier goroutine with all shard clocks at the
// barrier instant; the lookahead bound guarantees every queued delivery
// time is at or after it. Deterministic order: delivery time, then
// source shard, then send sequence.
func (f *Fabric) DrainMail() {
	sh := f.sh
	if sh == nil {
		return
	}
	for dst := 0; dst < sh.k; dst++ {
		for src := 0; src < sh.k; src++ {
			slices.SortFunc(sh.mail[src][dst].entries, cmpMail)
		}
		eng := sh.engines[dst]
		idx := sh.drainIdx
		for i := range idx {
			idx[i] = 0
		}
		for {
			best := -1
			var bt sim.Time
			for src := 0; src < sh.k; src++ {
				ents := sh.mail[src][dst].entries
				if idx[src] >= len(ents) {
					continue
				}
				if t := ents[idx[src]].at; best < 0 || t < bt {
					best, bt = src, t
				}
			}
			if best < 0 {
				break
			}
			e := &sh.mail[best][dst].entries[idx[best]]
			idx[best]++
			env := f.getEnv(dst)
			env.link, env.class, env.shard = nil, e.class, dst
			env.fn, env.a, env.b = e.fn, e.a, e.b
			eng.AtCall(e.at, deliverEnvelope, env, nil)
		}
		for src := 0; src < sh.k; src++ {
			ents := sh.mail[src][dst].entries
			for i := range ents {
				ents[i] = mailEntry{}
			}
			sh.mail[src][dst].entries = ents[:0]
		}
	}
}
