// Package net is the simulated message fabric: every network hop in the
// simulation — client→MDS requests, MDS→client replies, MDS↔MDS
// forwards, remote-fetch round trips, replica installs, coherence and
// eviction notices, write flushes and stat callbacks — routes through a
// single Fabric instead of scattering fixed-latency callbacks across the
// node code. The fabric owns typed, pooled envelopes (scheduling a hop
// allocates nothing in steady state), a pluggable latency model, and
// per-link / per-message-class counters, so communication can be
// measured, shaped, and later perturbed (drop/delay/partition) in one
// place.
//
// Endpoint map: a fabric over an n-node cluster has n+1 endpoints.
// Endpoints 0..n-1 are the MDS nodes; endpoint n (Fabric.ClientEdge) is
// the client edge, aggregating the whole client population — per-client
// links would be unbounded, and the experiments only need cluster-side
// visibility. A link is a directed (from, to) endpoint pair; loopback
// links carry round trips modelled as a single hop (LHPropagate).
package net

import "dynmds/internal/sim"

// Class labels one kind of simulated message. Counters are kept per
// class so the traffic mix is visible, and latency models may price
// classes differently.
type Class uint8

// Message classes, one per communication pattern in the system.
const (
	// Request is a client→MDS metadata operation.
	Request Class = iota
	// Reply is an MDS→client operation completion (with hints).
	Reply
	// Forward is an MDS→MDS redirected request (§4.4).
	Forward
	// FetchReq asks a peer for one inode record (remote prefix fetch).
	FetchReq
	// FetchResp returns the record to the requesting node.
	FetchResp
	// ReplicaInstall pushes a replica of a popular item to a peer (§4.4).
	ReplicaInstall
	// Coherence pushes an update to a replica holder (§4.2).
	Coherence
	// EvictNotice tells an authority a replica was dropped (§4.2).
	EvictNotice
	// WriteFlush pushes absorbed size maxima to an authority (§4.2).
	WriteFlush
	// StatCallback collects unflushed size maxima before a stat reply
	// (§4.2); both the callback and its response use this class.
	StatCallback
	// LHPropagate is the Lazy Hybrid dual-entry refresh round trip,
	// modelled as one loopback message priced at two forward hops.
	LHPropagate
	// FwdAck acknowledges a Forward hop back to the forwarder; only sent
	// when fault injection arms the forward timeout, so the forwarder can
	// distinguish a dead peer from a slow one.
	FwdAck
	// LeaseGrant accompanies a reply that grants a client read lease on
	// the touched record (internal/lease): the capability itself rides
	// the reply, this class carries its wire cost and conservation.
	LeaseGrant
	// LeaseRecall tells the client edge that a leased record mutated and
	// every outstanding lease on it is invalid (recall by generation).
	LeaseRecall
	// LeaseAck acknowledges a LeaseRecall back to the authority.
	LeaseAck

	numClasses
)

// NumClasses is the number of distinct message classes.
const NumClasses = int(numClasses)

var classNames = [NumClasses]string{
	"request", "reply", "forward", "fetch_req", "fetch_resp",
	"replica_install", "coherence", "evict_notice", "write_flush",
	"stat_callback", "lh_propagate", "fwd_ack",
	"lease_grant", "lease_recall", "lease_ack",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// classBytes holds the nominal on-wire size of each class, used for
// byte accounting and the queued model's serialization delay. Sizes are
// rough protocol estimates (headers + payload), not measurements.
var classBytes = [NumClasses]int{
	Request:        256,
	Reply:          128,
	Forward:        256,
	FetchReq:       64,
	FetchResp:      320,
	ReplicaInstall: 320,
	Coherence:      192,
	EvictNotice:    48,
	WriteFlush:     64,
	StatCallback:   64,
	LHPropagate:    192,
	FwdAck:         32,
	LeaseGrant:     48,
	LeaseRecall:    64,
	LeaseAck:       32,
}

// Bytes returns the nominal wire size of a class.
func Bytes(c Class) int { return classBytes[c] }

// HintBytes is the incremental reply size per distribution hint.
const HintBytes = 16

// ReplyBytes sizes a reply carrying the given number of hints.
func ReplyBytes(hints int) int { return classBytes[Reply] + hints*HintBytes }

// Latency model names accepted by cluster configuration.
const (
	ModelFixed  = "fixed"
	ModelQueued = "queued"
)

// FaultPlane perturbs message transit. Transit is consulted once per
// Send, before the latency model sees the message: a dropped message
// never enters the link (no queue occupancy, no envelope), and a passed
// message is delayed by extra on top of the model's price. A plane must
// be deterministic, and must not consume randomness for messages no
// active rule matches, so that an empty (or all-zero-probability)
// schedule leaves a run bit-identical to one with no plane attached.
type FaultPlane interface {
	Transit(from, to int, now sim.Time) (drop bool, extra sim.Time)
}

// LatencyModel prices one message's transit. Delay may read and update
// per-link state (the queued model's serialization horizon); it must be
// deterministic.
type LatencyModel interface {
	Name() string
	// Delay returns the send→deliver latency for a message of the given
	// class and size entering link l at virtual time now.
	Delay(l *Link, c Class, bytes int, now sim.Time) sim.Time
}

// Fixed reproduces the original constant-latency behaviour exactly:
// client-edge hops (Request, Reply) take Net, intra-cluster hops take
// Fwd, and the LHPropagate round trip takes 2×Fwd. Message size and
// link occupancy are ignored.
type Fixed struct {
	Net sim.Time // one-way client↔MDS latency
	Fwd sim.Time // one-way MDS↔MDS latency
}

// Name implements LatencyModel.
func (f Fixed) Name() string { return ModelFixed }

// Delay implements LatencyModel.
func (f Fixed) Delay(_ *Link, c Class, _ int, _ sim.Time) sim.Time { return f.base(c) }

func (f Fixed) base(c Class) sim.Time {
	switch c {
	case Request, Reply, LeaseGrant, LeaseRecall, LeaseAck:
		// Client-edge hops, the lease protocol's included.
		return f.Net
	case LHPropagate:
		return 2 * f.Fwd
	default:
		return f.Fwd
	}
}

// DefaultBandwidth is the queued model's per-link bandwidth in a
// cluster: 125 MB per simulated second (a 1 Gb/s link).
const DefaultBandwidth = 125e6

// Queued adds per-link serialization delay to the Fixed base latencies:
// each directed link transmits one message at a time at Bandwidth bytes
// per simulated second, so bursts on one link (replica pushes, flash-
// crowd forwards) queue behind each other instead of passing through a
// constant-latency pipe. With effectively infinite bandwidth the model
// degenerates to Fixed exactly.
type Queued struct {
	Base Fixed
	// Bandwidth is the link capacity in bytes per simulated second.
	Bandwidth float64
}

// Name implements LatencyModel.
func (q *Queued) Name() string { return ModelQueued }

// Delay implements LatencyModel: serialization behind the link's
// in-flight transmissions, then the fixed propagation latency.
func (q *Queued) Delay(l *Link, c Class, bytes int, now sim.Time) sim.Time {
	ser := sim.Time(float64(bytes) / q.Bandwidth * float64(sim.Second))
	start := now
	if l.BusyUntil > start {
		start = l.BusyUntil
	}
	done := start + ser
	l.BusyUntil = done
	return (done - now) + q.Base.base(c)
}
