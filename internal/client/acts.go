package client

import (
	"dynmds/internal/metrics"
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

// numMixOps is the op vocabulary size of the open-loop mix, in canonical
// draw order: stat, readdir, chmod, create, rename, unlink.
const numMixOps = 6

// Act retargets the population during [From, To): a rate multiplier, an
// op-mix override, and an optional hotspot that absorbs HotFrac of the
// act's target draws. Acts never overlap; between acts the population
// runs its base configuration. Boundaries are scheduled at exact
// virtual times, so a run with acts is bit-reproducible for a fixed
// (seed, clients).
//
// Open-loop semantics: each client's next inter-arrival is drawn at the
// previous arrival, so a rate change takes effect at the client's first
// draw after the boundary — one inter-arrival of lag, never a burst of
// rescheduling work at the boundary itself.
type Act struct {
	Name     string
	From, To sim.Time
	// RateMul scales the per-client arrival rate; 0 means unchanged.
	RateMul float64
	// Mix overrides the op-mix weights in canonical order (stat,
	// readdir, chmod, create, rename, unlink); an all-zero mix inherits
	// the base mix.
	Mix [numMixOps]float64
	// Hot, when non-nil, receives HotFrac of the act's draws as their
	// target (the directory of a create storm, the file of a stat
	// crowd). Resolved against the namespace by the cluster layer.
	Hot     *namespace.Inode
	HotFrac float64
}

// actStat is one act's accounting: counter snapshots at the boundaries
// and a latency histogram for completions that land inside the window.
type actStat struct {
	issued0, completed0 uint64
	issued1, completed1 uint64
	lat                 *metrics.LatHist
	open                bool
}

// ScheduleActs registers the acts and schedules their boundary events.
// Call once, before Start. The cluster layer validates ordering and
// non-overlap; boundary work (threshold rebuild, one histogram
// allocation per act) runs off the hot path.
func (p *Population) ScheduleActs(acts []Act) {
	p.acts = acts
	for i := range acts {
		if acts[i].Mix[5] > 0 {
			p.churnOn = true
		}
	}
	p.actStats = make([]actStat, len(acts))
	for i := range acts {
		p.eng.At(acts[i].From, func() { p.beginAct(i) })
		p.eng.At(acts[i].To, func() { p.endAct(i) })
	}
}

// beginAct installs act i's phase state.
func (p *Population) beginAct(i int) {
	a := &p.acts[i]
	p.rateMul = 1
	if a.RateMul > 0 {
		p.rateMul = a.RateMul
	}
	if a.Mix[0]+a.Mix[1]+a.Mix[2]+a.Mix[3]+a.Mix[4]+a.Mix[5] > 0 {
		p.cum = cumMix(a.Mix[0], a.Mix[1], a.Mix[2], a.Mix[3], a.Mix[4], a.Mix[5])
	} else {
		p.cum = p.baseCum
	}
	p.hot, p.hotFrac = a.Hot, a.HotFrac
	st := &p.actStats[i]
	st.issued0, st.completed0 = p.issued, p.completed
	st.lat = metrics.NewLatHist()
	st.open = true
	p.curLat = st.lat
}

// endAct snapshots act i's counters and reverts to the base phase.
func (p *Population) endAct(i int) {
	st := &p.actStats[i]
	st.issued1, st.completed1 = p.issued, p.completed
	st.open = false
	p.curLat = nil
	p.rateMul = 1
	p.cum = p.baseCum
	p.hot, p.hotFrac = nil, 0
}

// ActStat is one act's accounting.
type ActStat struct {
	Name      string
	From, To  sim.Time
	Issued    uint64
	Completed uint64
	Lat       *metrics.LatHist
}

// ActStats reports the act accounting. An act whose end event has not
// fired (To at the run horizon) reads live counters instead; one that
// has not begun reports an empty histogram.
func (p *Population) ActStats() []ActStat {
	if len(p.acts) == 0 {
		return nil
	}
	out := make([]ActStat, len(p.acts))
	for i, a := range p.acts {
		st := &p.actStats[i]
		i1, c1 := st.issued1, st.completed1
		if st.open {
			i1, c1 = p.issued, p.completed
		}
		lat := st.lat
		if lat == nil {
			lat = metrics.NewLatHist()
		}
		out[i] = ActStat{Name: a.Name, From: a.From, To: a.To,
			Issued: i1 - st.issued0, Completed: c1 - st.completed0, Lat: lat}
	}
	return out
}
