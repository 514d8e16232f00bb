// Package lease is the hotspot-mitigation plane layered over the
// message fabric: coherent client-side metadata leases and
// hot-directory replica fan-out.
//
// A lease is a bounded-lifetime read capability on one metadata record.
// The authority grants it on a reply when the record's decayed
// popularity crosses a threshold; the client then serves further reads
// of that record locally, with zero fabric hops, until the lease
// expires or the authority recalls it. Recall is by generation: every
// inode has a recall generation in a shared Registry, a grant snapshots
// the generation onto the client's lease slot, and a mutation bumps the
// generation — invalidating every outstanding lease on the record in
// O(1) without tracking individual holders. A LeaseRecall notice rides
// the fabric to the client edge (and is acknowledged with a LeaseAck)
// so the protocol cost is modelled and conserved like any other class;
// the registry bump itself is applied where the notice lands.
//
// Holder counts are an approximate upper bound: the registry counts
// grants since the last recall and never decrements on natural expiry,
// so a mutation may send a recall for leases that have already lapsed.
// That costs one spurious notice and is harmless; the invariant that
// matters — a valid lease slot implies the registry knows grants are
// outstanding — holds by construction and is checked by simfsck.
//
// Replica fan-out is the server-side counterpart (configured here,
// executed by the MDS): when a directory's popularity crosses the
// fan-out threshold the authority pushes Replica-class cache entries to
// peers ahead of demand, reusing the replica-set machinery that the
// coherence and failover paths already harden.
package lease

import (
	"fmt"

	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

// Config selects the two hotspot-mitigation mechanisms. The zero value
// disables both, leaving every fabric path bit-identical to a build
// without the plane.
type Config struct {
	// Enabled turns on client-side read leases (requires the open-loop
	// traffic plane, which owns the per-client lease slab).
	Enabled bool
	// Duration is the lease lifetime from client receipt (default 500ms).
	Duration sim.Time

	// Fanout turns on hot-directory replica fan-out at the MDS: an
	// authority pushes a hot directory to every peer.
	Fanout bool
}

const (
	// Ways is the per-client lease-slot count, a power of two. Each slot
	// costs 12 bytes in the dense slab.
	Ways = 2
	// DefaultDuration is the lease lifetime Normalize fills in.
	DefaultDuration = 500 * sim.Millisecond
	// GrantPopularity is the decayed-popularity floor for granting a
	// lease on a read reply: leases chase records that are already
	// warming up, mirroring how traffic control keys off the same
	// decayed counters.
	GrantPopularity = 20
	// FanoutPopularity is the decayed-popularity floor for fanning a
	// directory out.
	FanoutPopularity = 200
)

// Normalize fills in the lease lifetime. It returns an error for a
// negative one, so a bad setting is a construction error, never a
// mid-run surprise.
func (c *Config) Normalize() error {
	if !c.Enabled && !c.Fanout {
		return nil
	}
	if c.Duration == 0 {
		c.Duration = DefaultDuration
	}
	if c.Duration < 0 {
		return fmt.Errorf("lease: negative duration %v", c.Duration)
	}
	return nil
}

// Registry holds the per-inode recall generation and the count of
// grants issued since the last recall. The slices are sized once at
// construction and never grown; inodes past that capacity are simply
// never leased.
type Registry struct {
	gen    []uint32
	grants []uint32
}

// NewRegistry sizes the registry for inode IDs up to maxIno plus
// headroom for records created mid-run.
func NewRegistry(maxIno namespace.InodeID) *Registry {
	n := int(maxIno) + 1
	n += n/2 + 4096
	return &Registry{gen: make([]uint32, n), grants: make([]uint32, n)}
}

// Leasable reports whether the registry can track this inode.
func (r *Registry) Leasable(ino namespace.InodeID) bool {
	return uint64(ino) < uint64(len(r.gen))
}

// Gen returns the current recall generation for ino.
func (r *Registry) Gen(ino namespace.InodeID) uint32 {
	if !r.Leasable(ino) {
		return 0
	}
	return r.gen[ino]
}

// Outstanding reports whether any grants were issued since the last
// recall (an upper bound on live holders: expiry never decrements it).
func (r *Registry) Outstanding(ino namespace.InodeID) bool {
	return r.Leasable(ino) && r.grants[ino] > 0
}

// NoteGrant records one issued grant.
func (r *Registry) NoteGrant(ino namespace.InodeID) {
	if r.Leasable(ino) {
		r.grants[ino]++
	}
}

// Recall bumps the generation — invalidating every outstanding lease on
// ino — and zeroes the grant count.
func (r *Registry) Recall(ino namespace.InodeID) {
	if r.Leasable(ino) {
		r.gen[ino]++
		r.grants[ino] = 0
	}
}

// FootprintBytes is the registry's structural size.
func (r *Registry) FootprintBytes() int { return len(r.gen)*4 + len(r.grants)*4 }

// Table is the dense per-client lease slab: ways slots per client, 12
// bytes per slot (a key word and a packed meta word in parallel
// slices). Like the hint table it is direct-mapped with a deterministic
// home slot, so installs and lookups are allocation-free and O(ways).
//
// Slot layout: key = inode ID + 1 (0 = empty); meta packs the expiry
// (milliseconds of virtual time, truncated — a lease may expire up to
// 1ms early, deterministically) in the high 32 bits and the grant-time
// recall generation in the low 32.
type Table struct {
	ways uint32
	key  []uint32
	meta []uint64
}

// NewTable sizes a slab for n clients with the given power-of-two ways.
func NewTable(n, ways int) *Table {
	if n <= 0 || ways <= 0 || ways&(ways-1) != 0 {
		panic("lease: bad table size")
	}
	return &Table{ways: uint32(ways), key: make([]uint32, n*ways), meta: make([]uint64, n*ways)}
}

func expiryMs(t sim.Time) uint32 {
	ms := t / sim.Millisecond
	if ms < 0 {
		ms = 0
	}
	if ms > 0xFFFFFFFF {
		ms = 0xFFFFFFFF
	}
	return uint32(ms)
}

// home picks the slot an inode maps to within a client's region —
// same multiplicative hash as the hint table.
func (t *Table) home(ino namespace.InodeID) uint32 {
	return uint32((uint64(ino+1)*0x9E3779B97F4A7C15)>>40) & (t.ways - 1)
}

// Install stores a lease for client on ino, granted at generation gen
// and expiring at expiry. The home slot is overwritten: the newest
// grant wins, which biases the slab toward the hottest records.
func (t *Table) Install(client int, ino namespace.InodeID, gen uint32, expiry sim.Time) {
	if uint64(ino) >= 0xFFFFFFFF {
		return
	}
	base := uint32(client) * t.ways
	s := base + t.home(ino)
	t.key[s] = uint32(ino) + 1
	t.meta[s] = uint64(expiryMs(expiry))<<32 | uint64(gen)
}

// Valid reports whether client holds a live lease on ino: the slot must
// match, be unexpired at now, and carry the registry's current recall
// generation. Allocation-free; this is the open-loop hit path.
func (t *Table) Valid(client int, ino namespace.InodeID, gen uint32, now sim.Time) bool {
	if uint64(ino) >= 0xFFFFFFFF {
		return false
	}
	base := uint32(client) * t.ways
	s := base + t.home(ino)
	if t.key[s] != uint32(ino)+1 {
		return false
	}
	m := t.meta[s]
	return uint32(m) == gen && uint32(m>>32) > expiryMs(now)
}

// FootprintBytes is the slab's structural size.
func (t *Table) FootprintBytes() int { return len(t.key)*4 + len(t.meta)*8 }

// Plane bundles the shared registry and the client slab with the
// normalized config; the cluster builds one and hands it to both the
// MDS nodes (grant/recall/fan-out decisions) and the population (local
// serves and installs).
type Plane struct {
	Cfg Config
	Reg *Registry
	Tab *Table

	// Recalled counts recall notices delivered at the client edge.
	Recalled uint64
}

// NewPlane builds the plane for a population of clients over a
// namespace whose largest inode ID is maxIno. cfg must be normalized.
func NewPlane(cfg Config, clients int, maxIno namespace.InodeID) *Plane {
	p := &Plane{Cfg: cfg, Reg: NewRegistry(maxIno)}
	if cfg.Enabled && clients > 0 {
		p.Tab = NewTable(clients, Ways)
	}
	return p
}

// FootprintBytes is the plane's structural size (registry + slab).
func (p *Plane) FootprintBytes() int {
	n := p.Reg.FootprintBytes()
	if p.Tab != nil {
		n += p.Tab.FootprintBytes()
	}
	return n
}

// NoteRecalled counts a recall notice delivered at the client edge and
// applies the generation bump there.
func (p *Plane) NoteRecalled(ino namespace.InodeID) {
	p.Recalled++
	p.Reg.Recall(ino)
}

// Dangling scans the slab for slots that are unexpired, carry the
// current recall generation, and yet are unknown to the registry
// (grants == 0). Such a slot would be a coherence hole — a client
// serving reads the authority believes nobody caches — and must never
// exist; simfsck calls this after every drained run.
func (p *Plane) Dangling(now sim.Time) int {
	if p.Tab == nil {
		return 0
	}
	t := p.Tab
	nowMs := expiryMs(now)
	dangling := 0
	for s, k := range t.key {
		if k == 0 {
			continue
		}
		ino := namespace.InodeID(k - 1)
		m := t.meta[s]
		if uint32(m>>32) <= nowMs {
			continue // expired
		}
		if uint32(m) != p.Reg.Gen(ino) {
			continue // recalled
		}
		if !p.Reg.Outstanding(ino) {
			dangling++
		}
	}
	return dangling
}
