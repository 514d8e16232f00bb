package net

import (
	"dynmds/internal/metrics"
	"dynmds/internal/sim"
)

// LinkStats counts one directed link's lifetime traffic.
type LinkStats struct {
	Messages uint64
	Bytes    uint64
	// MaxDepth is the high-water mark of messages simultaneously in
	// flight on the link (its queue depth).
	MaxDepth int
}

// Link is one directed endpoint pair, with its counters and the mutable
// per-link state latency models use.
type Link struct {
	Stats LinkStats
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
// (fn, a, b) rides in the envelope, and the envelope itself is the
// single event payload, so a hop schedules without allocating once the
// pool is warm. Envelopes are owned by the fabric and recycled by the
// delivery dispatch, never while an engine event still references them.
type envelope struct {
	fab   *Fabric
	link  *Link
	class Class
	// shard is the lane the envelope's delivery accounts to (and the
	// pool it returns to); always 0 on an unsharded fabric.
	shard int
	fn    sim.EventFunc
	a, b  any
}

// Fabric routes every simulated message. Unsharded it is
// single-threaded, like the engine it schedules on: one fabric per
// cluster, no locks. Sharded (see Shard) it partitions all mutable state
// by sender or receiver shard so lookahead windows run without locks
// too: counters live in per-shard lanes, link rows belong to their
// sending shard, and cross-shard deliveries ride per-shard-pair
// mailboxes merged at window barriers.
type Fabric struct {
	eng   *sim.Engine
	model LatencyModel
	n     int // MDS endpoints; endpoint n is the client edge
	links []Link
	class [NumClasses]ClassStats
	pool  []*envelope
	live  int           // envelopes checked out of the pool (leak detector)
	plane FaultPlane    // nil unless fault injection is active
	sh    *fabricShards // nil unless Shard was called
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
	if f.sh == nil {
		return f.send(0, 0, c, from, to, bytes, fn, a, b)
	}
	return f.send(f.sh.shardOf[from], f.sh.shardOf[to], c, from, to, bytes, fn, a, b)
}

// SendFromEdge routes a client-edge→MDS message on behalf of a client
// living on srcShard. The client edge aggregates clients from every
// shard, so the sender shard cannot be derived from the endpoint index;
// the cluster passes it explicitly. Equivalent to Send when unsharded.
func (f *Fabric) SendFromEdge(srcShard int, c Class, to, bytes int, fn sim.EventFunc, a, b any) sim.Time {
	if f.sh == nil {
		return f.send(0, 0, c, f.n, to, bytes, fn, a, b)
	}
	return f.send(srcShard, f.sh.shardOf[to], c, f.n, to, bytes, fn, a, b)
}

// SendToEdge routes an MDS→client-edge message whose delivery must run
// on the recipient client's shard (dstShard). Equivalent to Send when
// unsharded.
func (f *Fabric) SendToEdge(dstShard int, c Class, from, bytes int, fn sim.EventFunc, a, b any) sim.Time {
	if f.sh == nil {
		return f.send(0, 0, c, from, f.n, bytes, fn, a, b)
	}
	return f.send(f.sh.shardOf[from], dstShard, c, from, f.n, bytes, fn, a, b)
}

func (f *Fabric) send(src, dst int, c Class, from, to, bytes int, fn sim.EventFunc, a, b any) sim.Time {
	eng := f.engineFor(src)
	now := eng.Now()
	l := f.linkFor(src, from, to)
	var extra sim.Time
	if f.plane != nil {
		var drop bool
		drop, extra = f.plane.Transit(from, to, now)
		if drop {
			// The message dies at the sender's NIC: it never occupies
			// the link and its continuation never runs. Count it so the
			// conservation identity stays sent == delivered + dropped.
			cs := &f.lane(src)[c]
			cs.Sent++
			cs.Dropped++
			cs.Bytes += uint64(bytes)
			return now
		}
	}
	delay := extra + f.model.Delay(l, c, bytes, now)
	l.Stats.Messages++
	l.Stats.Bytes += uint64(bytes)
	l.depth++
	if l.depth > l.Stats.MaxDepth {
		l.Stats.MaxDepth = l.depth
	}
	cs := &f.lane(src)[c]
	cs.Sent++
	cs.Bytes += uint64(bytes)
	if f.sh != nil && dst != src {
		// Cross-shard: the receiver learns of the message at the next
		// window barrier (guaranteed to come before the delivery time by
		// the lookahead bound). The sender still owns the link, so its
		// departure is a sender-side event; the delivery continuation
		// rides a by-value mailbox entry, not an envelope.
		eng.AfterCall(delay, linkDepart, l, nil)
		mb := &f.sh.mail[src][dst]
		mb.seq++
		mb.entries = append(mb.entries, mailEntry{
			at: now + delay, seq: mb.seq, class: c, fn: fn, a: a, b: b,
		})
		return now + delay
	}
	env := f.getEnv(src)
	env.link, env.class, env.shard, env.fn, env.a, env.b = l, c, src, fn, a, b
	eng.AfterCall(delay, deliverEnvelope, env, nil)
	return now + delay
}

// linkDepart retires a cross-shard message from its sending link at the
// delivery instant (the *Link payload keeps the event allocation-free).
func linkDepart(x, _ any) { x.(*Link).depth-- }

// deliverEnvelope completes one hop: release the envelope first, then
// run the continuation (which may immediately send again and reuse it).
// A nil link marks a mailbox-merged cross-shard delivery, whose link
// accounting the sender already handled.
func deliverEnvelope(x, _ any) {
	env := x.(*envelope)
	f := env.fab
	if env.link != nil {
		env.link.depth--
	}
	f.lane(env.shard)[env.class].Delivered++
	fn, a, b := env.fn, env.a, env.b
	f.putEnv(env)
	fn(a, b)
}

// engineFor returns the engine scheduling shard's events (the fabric's
// single engine when unsharded).
func (f *Fabric) engineFor(shard int) *sim.Engine {
	if f.sh == nil {
		return f.eng
	}
	return f.sh.engines[shard]
}

// lane returns the class-counter lane owned by shard.
func (f *Fabric) lane(shard int) *[NumClasses]ClassStats {
	if f.sh == nil {
		return &f.class
	}
	return &f.sh.class[shard]
}

// linkFor resolves the link state for a send. Rows are owned by their
// sending shard; the client-edge row — whose senders span every shard —
// splits into per-shard lanes when sharded.
func (f *Fabric) linkFor(src, from, to int) *Link {
	if f.sh != nil && from == f.n {
		return &f.sh.edgeRows[src][to]
	}
	return &f.links[from*(f.n+1)+to]
}

func (f *Fabric) getEnv(shard int) *envelope {
	pool, live := &f.pool, &f.live
	if f.sh != nil {
		pool, live = &f.sh.pools[shard], &f.sh.live[shard]
	}
	*live++
	if n := len(*pool); n > 0 {
		env := (*pool)[n-1]
		(*pool)[n-1] = nil
		*pool = (*pool)[:n-1]
		return env
	}
	return &envelope{fab: f}
}

func (f *Fabric) putEnv(env *envelope) {
	pool, live := &f.pool, &f.live
	if f.sh != nil {
		pool, live = &f.sh.pools[env.shard], &f.sh.live[env.shard]
	}
	env.link, env.fn, env.a, env.b = nil, nil, nil, nil
	*live--
	*pool = append(*pool, env)
}

// Class returns the fabric-wide counters for one message class, summed
// across shard lanes.
func (f *Fabric) Class(c Class) ClassStats {
	if f.sh == nil {
		return f.class[c]
	}
	var cs ClassStats
	for i := range f.sh.class {
		l := &f.sh.class[i][c]
		cs.Sent += l.Sent
		cs.Delivered += l.Delivered
		cs.Dropped += l.Dropped
		cs.Bytes += l.Bytes
	}
	return cs
}

// InFlight returns the number of messages sent but neither delivered
// nor dropped. Between windows on a sharded fabric this includes
// messages waiting in mailboxes.
func (f *Fabric) InFlight() int {
	var d int
	for c := 0; c < NumClasses; c++ {
		cs := f.Class(Class(c))
		d += int(cs.Sent - cs.Delivered - cs.Dropped)
	}
	return d
}

// LiveEnvelopes returns the number of envelopes checked out of the
// pools. Cross-shard messages only occupy an envelope from their
// barrier merge onward, so at quiescence this equals InFlight unless an
// envelope leaked.
func (f *Fabric) LiveEnvelopes() int {
	if f.sh == nil {
		return f.live
	}
	n := 0
	for _, l := range f.sh.live {
		n += l
	}
	return n
}

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

// Summary snapshots the fabric's counters, merging shard lanes.
func (f *Fabric) Summary() Stats {
	s := Stats{Model: f.model.Name()}
	for c := 0; c < NumClasses; c++ {
		s.PerClass[c] = f.Class(Class(c))
		s.Messages += s.PerClass[c].Sent
		s.Bytes += s.PerClass[c].Bytes
		s.Dropped += s.PerClass[c].Dropped
	}
	for i := range f.links {
		if d := f.links[i].Stats.MaxDepth; d > s.MaxQueueDepth {
			s.MaxQueueDepth = d
		}
	}
	if f.sh != nil {
		for i := range f.sh.edgeRows {
			for j := range f.sh.edgeRows[i] {
				if d := f.sh.edgeRows[i][j].Stats.MaxDepth; d > s.MaxQueueDepth {
					s.MaxQueueDepth = d
				}
			}
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
