package fault

import (
	"fmt"

	"dynmds/internal/sim"
	"dynmds/internal/snap"
)

// sideNone/A/B label partition membership in the precomputed tables.
const (
	sideNone uint8 = iota
	sideA
	sideB
)

// Plane binds a Schedule to a seeded RNG stream and answers the
// fabric's per-send Transit query. It is single-threaded, like the
// fabric that owns it.
type Plane struct {
	s    *Schedule
	rng  *sim.RNG
	edge int // client-edge endpoint index (== numMDS)

	// draws counts Float64 calls on the fault stream. math/rand state is
	// opaque, but the stream is deterministic in (seed, draw count), so a
	// checkpoint serializes the count and a restore replays it forward.
	draws uint64

	// side[i] is partition i's membership table indexed by endpoint; the
	// client edge is always sideNone.
	side [][]uint8
}

// NewPlane builds a plane for a cluster whose client edge is endpoint
// clientEdge (i.e. numMDS). The RNG stream is derived from the run seed
// with its own label, so attaching a plane perturbs no other stream.
func NewPlane(seed int64, s *Schedule, clientEdge int) *Plane {
	p := &Plane{s: s, rng: sim.NewStream(seed, "fault"), edge: clientEdge}
	p.side = make([][]uint8, len(s.Partitions))
	for i, part := range s.Partitions {
		tbl := make([]uint8, clientEdge+1)
		for _, n := range part.A {
			tbl[n] = sideA
		}
		for _, n := range part.B {
			tbl[n] = sideB
		}
		p.side[i] = tbl
	}
	return p
}

// Transit implements net.FaultPlane: partitions drop deterministically,
// drop rules each draw once per matching message, and active lag rules
// accumulate extra latency. No randomness is consumed unless a
// positive-probability drop rule matches the link.
func (p *Plane) Transit(from, to int, now sim.Time) (bool, sim.Time) {
	for i := range p.s.Partitions {
		part := &p.s.Partitions[i]
		if now < part.From || now >= part.To {
			continue
		}
		a, b := p.side[i][from], p.side[i][to]
		if a != sideNone && b != sideNone && a != b {
			return true, 0
		}
	}
	for i := range p.s.Drops {
		d := &p.s.Drops[i]
		if d.P <= 0 || !d.Sel.Matches(from, to, p.edge) {
			continue
		}
		p.draws++
		if p.rng.Float64() < d.P {
			return true, 0
		}
	}
	var extra sim.Time
	for i := range p.s.Lags {
		l := &p.s.Lags[i]
		if now >= l.From && now < l.To && l.Sel.Matches(from, to, p.edge) {
			extra += l.Extra
		}
	}
	return false, extra
}

// Snap walks the stream position, the count of draws. Reading only
// records it: Replay moves the stream there.
func (p *Plane) Snap(c *snap.Codec) { snap.U(c, &p.draws) }

// Replay fast-forwards a freshly restored plane's RNG stream to the
// draw count its snapshot carried. Every draw is one sent message
// meeting one positive-probability drop rule, so a count above sent
// times the rules came from no run — and it is a loop bound, so it is
// refused rather than believed.
func (p *Plane) Replay(sent uint64) error {
	rules := uint64(0)
	for i := range p.s.Drops {
		if p.s.Drops[i].P > 0 {
			rules++
		}
	}
	if p.draws > sent*rules {
		return fmt.Errorf("fault: snapshot has %d fault draws, its %d sent messages under %d drop rules allow %d",
			p.draws, sent, rules, sent*rules)
	}
	for i := uint64(0); i < p.draws; i++ {
		p.rng.Float64()
	}
	return nil
}
