package net

import (
	"dynmds/internal/metrics"
	"dynmds/internal/sim"
)

// Link is one directed endpoint pair, with its high-water mark and the
// mutable per-link state latency models use.
type Link struct {
	// MaxDepth is the high-water mark of messages simultaneously in
	// flight on the link (its queue depth).
	MaxDepth int
	// BusyUntil is the queued model's serialization horizon: the time
	// the link finishes transmitting everything accepted so far.
	BusyUntil sim.Time

	depth int // messages currently in flight
}

// ClassStats counts one message class fabric-wide. Every send is either
// eventually delivered or dropped at send time by the fault plane, so
// Sent == Delivered + Dropped once traffic drains.
type ClassStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

// envelope carries one in-flight message: the delivery continuation
// rides in the envelope, and the envelope itself is the single event
// payload, so a hop schedules without allocating once the pool is warm.
// Envelopes are owned by the fabric and recycled by the delivery
// dispatch, never while an engine event still references them.
type envelope struct {
	fab   *Fabric
	link  *Link
	class Class
	call  sim.Call
}

// Fabric routes every simulated message. It is single-threaded, like
// the engine it schedules on: one fabric per cluster, no locks.
type Fabric struct {
	eng   *sim.Engine
	model LatencyModel
	n     int // MDS endpoints; endpoint n is the client edge
	links []Link
	class [NumClasses]ClassStats
	pool  sim.Pool[envelope] // its lent count is the leak detector
	plane FaultPlane         // nil unless fault injection is active
}

// NewFabric creates a fabric over numMDS node endpoints plus the client
// edge, pricing transit with the given model.
func NewFabric(eng *sim.Engine, numMDS int, model LatencyModel) *Fabric {
	w := numMDS + 1
	return &Fabric{eng: eng, model: model, n: numMDS, links: make([]Link, w*w)}
}

// ClientEdge returns the endpoint index aggregating the client
// population.
func (f *Fabric) ClientEdge() int { return f.n }

// SetFaultPlane attaches a fault plane consulted on every Send. Pass
// nil to detach.
func (f *Fabric) SetFaultPlane(p FaultPlane) { f.plane = p }

// Send routes one message of the given class and size from endpoint
// `from` to endpoint `to`; fn(a, b) runs at delivery. It returns the
// delivery time. Counters update at send and delivery, so at any
// instant Sent - Delivered messages are in flight.
func (f *Fabric) Send(c Class, from, to, bytes int, fn sim.EventFunc, a, b any) sim.Time {
	now := f.eng.Now()
	l := &f.links[from*(f.n+1)+to]
	cs := &f.class[c]
	var extra sim.Time
	if f.plane != nil {
		var drop bool
		drop, extra = f.plane.Transit(from, to, now)
		if drop {
			// The message dies at the sender's NIC: it never occupies
			// the link and its continuation never runs. Count it so the
			// conservation identity stays sent == delivered + dropped.
			cs.Sent++
			cs.Dropped++
			cs.Bytes += uint64(bytes)
			return now
		}
	}
	delay := extra + f.model.Delay(l, c, bytes, now)
	l.depth++
	if l.depth > l.MaxDepth {
		l.MaxDepth = l.depth
	}
	cs.Sent++
	cs.Bytes += uint64(bytes)
	env := f.pool.Get()
	env.fab, env.link, env.class = f, l, c
	env.call.Set(fn, a, b)
	f.eng.AfterCall(delay, deliverEnvelope, env, nil)
	return now + delay
}

// deliverEnvelope completes one hop: release the envelope first, then
// run the continuation (which may immediately send again and reuse it).
func deliverEnvelope(x, _ any) {
	env := x.(*envelope)
	f := env.fab
	env.link.depth--
	f.class[env.class].Delivered++
	call := env.call
	env.link = nil
	env.call = sim.Call{}
	f.pool.Put(env)
	call.Run()
}

// Class returns the fabric-wide counters for one message class.
func (f *Fabric) Class(c Class) ClassStats { return f.class[c] }

// InFlight returns the number of messages sent but neither delivered
// nor dropped.
func (f *Fabric) InFlight() int {
	var d int
	for c := 0; c < NumClasses; c++ {
		cs := f.Class(Class(c))
		d += int(cs.Sent - cs.Delivered - cs.Dropped)
	}
	return d
}

// LiveEnvelopes returns the number of envelopes checked out of the
// pool. At quiescence it equals InFlight unless an envelope leaked.
func (f *Fabric) LiveEnvelopes() int { return f.pool.Lent() }

// Stats is the run-level fabric summary surfaced in cluster.Result.
type Stats struct {
	Model    string
	Messages uint64
	Bytes    uint64
	// Dropped counts messages the fault plane killed at send time.
	Dropped uint64
	// MaxQueueDepth is the largest per-link in-flight high-water mark.
	MaxQueueDepth int
	PerClass      [NumClasses]ClassStats
}

// Summary snapshots the fabric's counters.
func (f *Fabric) Summary() Stats {
	s := Stats{Model: f.model.Name()}
	for c := 0; c < NumClasses; c++ {
		s.PerClass[c] = f.Class(Class(c))
		s.Messages += s.PerClass[c].Sent
		s.Bytes += s.PerClass[c].Bytes
		s.Dropped += s.PerClass[c].Dropped
	}
	for i := range f.links {
		if d := f.links[i].MaxDepth; d > s.MaxQueueDepth {
			s.MaxQueueDepth = d
		}
	}
	return s
}

// Table renders the per-class counters as an aligned console table. The
// dropped column appears only when the fault plane actually dropped
// something, so fault-free output is unchanged.
func (s *Stats) Table() string {
	if s.Dropped > 0 {
		tb := metrics.NewTable("class", "sent", "delivered", "dropped", "bytes")
		for c := 0; c < NumClasses; c++ {
			cs := s.PerClass[c]
			if cs.Sent == 0 {
				continue
			}
			tb.AddRow(Class(c).String(), int(cs.Sent), int(cs.Delivered),
				int(cs.Dropped), int(cs.Bytes))
		}
		return tb.String()
	}
	tb := metrics.NewTable("class", "sent", "delivered", "bytes")
	for c := 0; c < NumClasses; c++ {
		cs := s.PerClass[c]
		if cs.Sent == 0 {
			continue
		}
		tb.AddRow(Class(c).String(), int(cs.Sent), int(cs.Delivered), int(cs.Bytes))
	}
	return tb.String()
}
