// Package mds implements one simulated metadata server: the request
// pipeline (CPU service, authority resolution, forwarding, path
// traversal, cache lookups, directory-granular disk fetches with
// embedded-inode prefetch, log commits for updates), intra-cluster
// cooperation (remote prefix fetches, replica installation for traffic
// control, subtree import/export for load balancing), and the per-node
// statistics the experiments measure.
//
// The MDS is strategy-agnostic: all partitioning behaviour comes through
// the partition.Strategy interface, so the same node code serves the
// dynamic subtree system and every comparison strategy.
package mds

import (
	"dynmds/internal/cache"
	"dynmds/internal/core"
	"dynmds/internal/dirstore"
	"dynmds/internal/lease"
	"dynmds/internal/metrics"
	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/net"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/storage"
)

// Config holds the per-node service model.
type Config struct {
	// CPUService is the processing time per request at the serving
	// node.
	CPUService sim.Time
	// PeerService is the (smaller) CPU time to serve a peer's prefix
	// fetch or install a pushed replica.
	PeerService sim.Time
	// NetLatency is the one-way client↔MDS network latency.
	NetLatency sim.Time
	// FwdLatency is the one-way MDS↔MDS latency; intra-cluster
	// forwarding "is likely to be cheap" (§5.3.3).
	FwdLatency sim.Time
	// ImportPerRecord is the CPU time per record to import or export a
	// migrated subtree; it makes migrations briefly freeze the node.
	ImportPerRecord sim.Time
	// CacheCapacity is the cache size in records.
	CacheCapacity int
	// Storage configures the two-tier store.
	Storage storage.Config
	// PopHalfLife is the popularity counter half-life.
	PopHalfLife sim.Time
	// LoadMissWeight weights cache misses against throughput in the
	// balancer's load metric (§5.1).
	LoadMissWeight float64
	// RateHalfLife smooths the throughput/miss rates used for load.
	RateHalfLife sim.Time

	// WriteFlushInterval is the period at which replicas flush absorbed
	// monotonic size updates to authorities (§4.2). The cluster starts
	// the flusher ticker; zero disables periodic flushing (stat
	// callbacks still collect on demand).
	WriteFlushInterval sim.Time

	// Fault-injection timeouts (zero disables both; the cluster sets
	// them when a fault schedule is active, see internal/fault).
	//
	// FetchTimeout bounds a remote prefix-fetch round trip. On expiry
	// the peer is reported suspect and the fetch falls back to this
	// node's own read of the shared store — any node can read any
	// record (§2.1.2), the peer round trip is only an optimisation.
	// Arming it disables fetch-carrier pooling (a timed-out carrier may
	// still be referenced by the late response).
	FetchTimeout sim.Time
	// FwdTimeout bounds the forward→ack handshake. When set, a node
	// receiving a forwarded request acks it back to the forwarder
	// (net.FwdAck); a missing ack reports the peer suspect and the
	// forwarder re-resolves the authority and re-dispatches. Requests
	// whose authority is confirmed down are dropped (dead-lettered) and
	// covered by the client's retry timeout.
	FwdTimeout sim.Time

	// Ablation knob (see DESIGN.md).
	//
	// PrefetchHot inserts prefetched siblings at the hot MRU end
	// instead of near the LRU tail, letting speculation displace known
	// useful entries (the policy §4.5 argues against).
	PrefetchHot bool
}

// DefaultConfig returns the service model used by the experiments.
func DefaultConfig(cacheCapacity int) Config {
	return Config{
		CPUService:         300 * sim.Microsecond,
		PeerService:        100 * sim.Microsecond,
		NetLatency:         200 * sim.Microsecond,
		FwdLatency:         50 * sim.Microsecond,
		ImportPerRecord:    5 * sim.Microsecond,
		CacheCapacity:      cacheCapacity,
		Storage:            storage.DefaultConfig(cacheCapacity),
		PopHalfLife:        2 * sim.Second,
		LoadMissWeight:     10,
		RateHalfLife:       5 * sim.Second,
		WriteFlushInterval: sim.Second,
	}
}

// FaultCluster is optionally implemented by the Cluster when fault
// injection is active: nodes report peers that miss timeouts, clear
// suspicion on proof of life, and check whether an authority is already
// confirmed down. The cluster turns accumulated suspicion into failover
// reassignment (see internal/cluster).
type FaultCluster interface {
	// Suspect records one missed-timeout strike against peer, observed
	// by reporter.
	Suspect(reporter, peer int)
	// Exonerate clears the strikes against a peer that proved alive.
	Exonerate(peer int)
	// NodeDown reports whether peer has been confirmed down.
	NodeDown(peer int) bool
}

// Cluster is the MDS's view of its surroundings.
type Cluster interface {
	// Node returns peer i.
	Node(i int) *MDS
	// NumMDS returns the cluster size.
	NumMDS() int
	// Tree returns the shared ground-truth namespace.
	Tree() *namespace.Tree
	// Deliver hands a completed reply back to the issuing client.
	Deliver(rep *msg.Reply)
	// Fabric returns the message fabric every simulated hop routes
	// through (see internal/net).
	Fabric() *net.Fabric
}

// Stats counts one node's activity.
type Stats struct {
	Received        uint64 // all arrivals (client + forwarded)
	ClientArrivals  uint64 // arrivals directly from clients
	Served          uint64 // replies sent (including replica serves)
	ReplicaServes   uint64
	Forwarded       uint64
	CacheMissLoads  uint64 // fetches that went to disk or a peer
	RemoteFetches   uint64 // prefix fetches sent to peers
	PeerFetchServes uint64
	ReplicaInstalls uint64
	ReplicasPushed  uint64
	LHApplied       uint64 // lazy ACL propagations performed
	Commits         uint64
	Imported        uint64 // records imported by migrations
	Exported        uint64
	Dropped         uint64 // requests dropped (failed node)

	// Fault-injection machinery (zero in fault-free runs).
	FetchTimeouts uint64 // remote fetches that fell back to local disk
	FwdTimeouts   uint64 // forwards that missed their ack
	DeadLetters   uint64 // requests dropped: authority confirmed down

	// Cache-coherence traffic (§4.2): updates pushed to replica
	// holders, updates received for local replicas, and
	// discard notices sent to / received by authorities when a
	// replica is evicted.
	CoherenceSent     uint64
	CoherenceReceived uint64
	EvictNoticesSent  uint64
	EvictNoticesRecvd uint64

	// Deleted-while-open retention (§4.5).
	OrphansRetained uint64
	OrphansReaped   uint64

	// Distributed monotonic updates (§4.2).
	WritesAbsorbed uint64 // size updates absorbed at this replica
	WriteFlushes   uint64 // local maxima flushed to authorities
	SizeCallbacks  uint64 // stat-time callbacks issued as authority

	// Lease plane (internal/lease): read leases granted on replies,
	// recall notices sent on mutations of leased records, recall acks
	// received back from the client edge, and hot directories pushed to
	// peers ahead of demand.
	LeaseGrants    uint64
	LeaseRecalls   uint64
	LeaseAcks      uint64
	ReplicaFanouts uint64
}

// pendingCall is one coalesced-fetch waiter in the engine's typed
// callback form.
type pendingCall struct {
	fn   sim.EventFunc
	a, b any
}

// fetch threads one record load through its asynchronous steps (disk
// I/O or peer round trip) without per-step closures: the carrier is the
// single event payload, and the continuation (fn, a, b) rides inside it.
type fetch struct {
	m    *MDS
	ino  *namespace.Inode
	cl   cache.Class
	fn   sim.EventFunc
	a, b any
	// peer is the authority a remote fetch was sent to (-1 for local
	// loads); done marks the fetch completed, so a timed-out fetch and
	// its late remote response cannot both finish it. Both are only
	// meaningful when FetchTimeout is armed.
	peer int
	done bool
}

// replyConsumer is optionally implemented by the Cluster. When Deliver
// consumes replies synchronously (the real cluster: the client absorbs
// hints and latency inside Deliver), the MDS recycles reply structs and
// their hint slices. Test harnesses that retain replies simply do not
// implement it.
type replyConsumer interface{ DeliverConsumesReply() bool }

// clientLocator is optionally implemented by the Cluster when execution
// is sharded: it maps a client to the shard whose engine runs it, so
// replies are routed into the right client-edge lane. Unsharded clusters
// need not implement it (shard 0 then means "the one engine").
type clientLocator interface{ ClientShard(client int) int }

// replyRouter is optionally implemented by the Cluster. When it reports
// true, Deliver runs on the client's shard and parks consumed replies in
// a per-shard return buffer; the barrier hands them back to the serving
// node through TakeReply. mdsDeliver must then not recycle inline — that
// would append to another shard's pool mid-window.
type replyRouter interface{ RoutesReplies() bool }

// leaseCluster is optionally implemented by the Cluster when the lease
// plane is active: it lands a recall notice at the client edge (bumping
// the shared recall generation through the edge engine's deferred-op
// path) and acks it back to the authority on the LeaseAck class.
type leaseCluster interface {
	LeaseRecallDeliver(from int, target *namespace.Inode)
}

// MDS is one metadata server.
type MDS struct {
	id      int
	eng     *sim.Engine
	cfg     Config
	strat   partition.Strategy
	cluster Cluster
	// fab is the cluster's message fabric; every network hop this node
	// initiates goes through it (never eng.AfterCall directly).
	fab *net.Fabric
	// cloc resolves a client's shard for reply routing (nil unsharded);
	// routedReplies disables inline reply recycling in favour of the
	// barrier's TakeReply hand-back.
	cloc          clientLocator
	routedReplies bool

	cpu   *sim.Server
	cache *cache.Cache
	store *storage.Store

	// tc is non-nil when the dynamic strategy's traffic control is
	// active on this cluster.
	tc *core.TrafficControl
	// dyn is non-nil for the dynamic strategy (directory hashing hook).
	dyn *core.DynamicSubtree
	// lh is non-nil for the Lazy Hybrid strategy.
	lh *partition.LazyHybrid

	opsRate  *metrics.DecayCounter
	missRate *metrics.DecayCounter

	// pending coalesces concurrent fetches of the same record: one I/O
	// (or peer fetch) serves every waiter. pendingDir does the same for
	// whole-directory content loads. Waiters are stored as typed calls
	// by value, so coalescing allocates no closures.
	pending    map[namespace.InodeID][]pendingCall
	pendingDir map[namespace.InodeID][]pendingCall
	// dirWaiters recycles pendingDir's waiter lists, emptied, so a
	// directory load in steady state allocates nothing.
	dirWaiters [][]pendingCall

	// fetchPool recycles the fetch carriers that thread a record load
	// through its disk or peer round trip; replyPool recycles reply
	// structs (with their hint slices) when the cluster consumes
	// replies synchronously on Deliver. Pooled objects are released
	// only by the dispatch that consumes them, never while an engine
	// event still references them (see DESIGN.md, "Pooling rules").
	fetchPool   []*fetch
	replyPool   []*msg.Reply
	poolReplies bool

	// sizePending holds locally absorbed monotonic size updates not
	// yet flushed to authorities (§4.2).
	sizePending map[namespace.InodeID]int64

	// opens tracks per-inode open counts at the authority, and orphans
	// holds inodes unlinked while still open: without a global inode
	// table the MDS "must take care to remember where the inode is
	// stored ... and to retain inodes that are deleted while still
	// open" (§4.5). The record is reaped on the last close.
	opens   map[namespace.InodeID]int
	orphans map[namespace.InodeID]*namespace.Inode

	failed bool
	// slow scales this node's CPU service times while a slow-node fault
	// window is active; 1 = normal speed.
	slow float64
	// fc is the cluster's suspicion surface, non-nil when the cluster
	// implements FaultCluster; use is gated on the timeout knobs so
	// fault-free runs are untouched.
	fc FaultCluster
	// pendingFwd tracks forwards awaiting their FwdAck; the value's seq
	// invalidates stale timeout timers when a request is re-forwarded.
	pendingFwd map[*msg.Request]fwdRec
	fwdSeq     uint64
	// poolFetch gates fetch-carrier recycling; off while FetchTimeout is
	// armed (a timed-out carrier may be resumed by its late response).
	poolFetch bool

	// flusher is the periodic write-flush ticker, retained so the
	// endurance quiesce can stop and restart it.
	flusher *sim.Ticker

	// lease is the cluster's hotspot-mitigation plane (nil when neither
	// client leases nor replica fan-out are enabled); lec is the
	// cluster's recall-delivery surface, set alongside it.
	lease *lease.Plane
	lec   leaseCluster

	// OnReply and OnForward, when set, observe served requests and
	// forwards for time-series measurement.
	OnReply   func(id int, req *msg.Request, now sim.Time)
	OnForward func(id int, req *msg.Request, now sim.Time)

	Stats Stats
}

// New creates a node. The strategy's concrete type activates optional
// behaviour: *core.DynamicSubtree enables directory-hash checks,
// *partition.LazyHybrid enables dual-entry ACL staleness handling.
func New(id int, eng *sim.Engine, cfg Config, strat partition.Strategy, tc *core.TrafficControl, cl Cluster) *MDS {
	m := &MDS{
		id:          id,
		eng:         eng,
		cfg:         cfg,
		strat:       strat,
		cluster:     cl,
		fab:         cl.Fabric(),
		cpu:         sim.NewServer(eng, 1),
		cache:       cache.NewSized(cfg.CacheCapacity, cl.Tree().MaxID()),
		store:       storage.New(eng, cfg.Storage),
		tc:          tc,
		opsRate:     metrics.NewDecayCounter(cfg.RateHalfLife),
		missRate:    metrics.NewDecayCounter(cfg.RateHalfLife),
		pending:     make(map[namespace.InodeID][]pendingCall),
		pendingDir:  make(map[namespace.InodeID][]pendingCall),
		opens:       make(map[namespace.InodeID]int),
		orphans:     make(map[namespace.InodeID]*namespace.Inode),
		sizePending: make(map[namespace.InodeID]int64),
	}
	if d, ok := strat.(*core.DynamicSubtree); ok {
		m.dyn = d
	}
	if l, ok := strat.(*partition.LazyHybrid); ok {
		m.lh = l
	}
	m.slow = 1
	m.poolFetch = cfg.FetchTimeout <= 0
	if fc, ok := cl.(FaultCluster); ok {
		m.fc = fc
	}
	if rc, ok := cl.(replyConsumer); ok && rc.DeliverConsumesReply() {
		m.poolReplies = true
	}
	if loc, ok := cl.(clientLocator); ok {
		m.cloc = loc
	}
	if rr, ok := cl.(replyRouter); ok && rr.RoutesReplies() {
		m.routedReplies = true
	}
	// When a replica (or remote prefix) is evicted, notify its
	// authority so it can drop the holder from the replica set and is
	// "free to remove its own copy from memory" (§4.2). The replica-set
	// bit is shared inode state, so the clear is deferred to the barrier;
	// a window that evicts and re-evicts can send a duplicate notice,
	// which the authority absorbs as a counter bump.
	m.cache.OnEvict = func(e *cache.Entry) {
		tags := partition.TagsOf(e.Ino)
		if !tags.HasReplica(m.id) {
			return
		}
		m.eng.Defer(clearReplicaTag, e.Ino, m)
		auth := m.strat.Authority(e.Ino)
		if auth == m.id {
			return
		}
		m.Stats.EvictNoticesSent++
		peer := m.cluster.Node(auth)
		m.fab.Send(net.EvictNotice, m.id, auth, net.Bytes(net.EvictNotice), evictNoticeArrive, peer, nil)
	}
	return m
}

func evictNoticeArrive(a, _ any) { a.(*MDS).Stats.EvictNoticesRecvd++ }

// AttachLeasePlane activates the hotspot-mitigation plane on this node:
// read-lease grants on replies, recall-on-mutate notices, and
// hot-directory replica fan-out. The cluster attaches it after
// construction; a nil plane (the default) leaves every request path
// bit-identical to a build without the plane.
func (m *MDS) AttachLeasePlane(p *lease.Plane) {
	m.lease = p
	if lc, ok := m.cluster.(leaseCluster); ok {
		m.lec = lc
	}
}

// NoteLeaseAck lands a LeaseAck from the client edge: the recall round
// trip is complete. Runs on this node's engine.
func (m *MDS) NoteLeaseAck() { m.Stats.LeaseAcks++ }

// leaseNoteGrant records one issued grant on the shared registry.
// a = *lease.Plane, b = *namespace.Inode.
func leaseNoteGrant(a, b any) { a.(*lease.Plane).Reg.NoteGrant(b.(*namespace.Inode).ID) }

// leaseGrantArrive is the LeaseGrant class's delivery continuation: the
// capability itself rides the reply, so arrival is pure accounting (the
// fabric's per-class counters conserve it).
func leaseGrantArrive(_, _ any) {}

// leaseRecallArrive lands a LeaseRecall at the client edge. It runs on
// the edge shard's engine, so it only touches the cluster's dedicated
// recall surface, which defers the generation bump there and acks back.
func leaseRecallArrive(a, b any) {
	m := a.(*MDS)
	m.lec.LeaseRecallDeliver(m.id, b.(*namespace.Inode))
}

// fanoutTagSet / fanoutTagClear flip inode b's cluster-wide replication
// advertisement for the fan-out mechanism (shared tag state, deferred).
func fanoutTagSet(_, b any)   { partition.TagsOf(b.(*namespace.Inode)).ReplicatedAll = true }
func fanoutTagClear(_, b any) { partition.TagsOf(b.(*namespace.Inode)).ReplicatedAll = false }

// call0 adapts a bare func() to a fabric delivery continuation, for the
// rare cold paths (write flushes, stat callbacks) that keep closures.
func call0(a, _ any) { a.(func())() }

// Deferred shared-state mutations. All writes to per-inode tags, the
// namespace tree, and cluster-shared policy counters route through
// Engine.Defer with one of these typed appliers: in serial execution
// Defer calls them on the spot (bit-identical to the pre-sharding code),
// in sharded execution they run in the deterministic barrier merge.

// setReplicaTag marks b's node in inode a's replica set.
func setReplicaTag(a, b any) {
	partition.TagsOf(a.(*namespace.Inode)).SetReplica(b.(*MDS).id)
}

// clearReplicaTag removes b's node from inode a's replica set.
func clearReplicaTag(a, b any) {
	partition.TagsOf(a.(*namespace.Inode)).ClearReplica(b.(*MDS).id)
}

// bumpPop bumps inode b's popularity counter at node a.
func bumpPop(a, b any) {
	m := a.(*MDS)
	partition.Popularity(b.(*namespace.Inode)).Add(m.eng.Now(), m.cfg.PopHalfLife, 1)
}

// bumpFwdPop bumps inode b's forwarded-request counter at node a
// (deferred because it writes shared inode state).
func bumpFwdPop(a, b any) {
	m := a.(*MDS)
	partition.FwdPopularity(b.(*namespace.Inode)).Add(m.eng.Now(), m.cfg.PopHalfLife, 1)
}

// notePreemptive counts one preemptive replication on the shared policy.
func notePreemptive(a, _ any) { a.(*MDS).tc.Preemptive++ }

// tcCommitReplicate / tcCommitConsolidate apply a peeked traffic-control
// decision to inode b's shared replication flag and counters.
func tcCommitReplicate(a, b any) {
	a.(*MDS).tc.Commit(core.Replicate, b.(*namespace.Inode))
}

func tcCommitConsolidate(a, b any) {
	a.(*MDS).tc.Commit(core.Consolidate, b.(*namespace.Inode))
}

// lhApplyTag refreshes inode b's stale dual-entry ACL (Lazy Hybrid).
func lhApplyTag(a, b any) { a.(*MDS).lh.Apply(b.(*namespace.Inode)) }

// mdsApplyUpdate applies request b's namespace mutation at node a.
func mdsApplyUpdate(a, b any) { a.(*MDS).applyUpdate(b.(*msg.Request)) }

// fwdRec is one outstanding forward awaiting its ack: the destination
// (for suspicion/exoneration) and a sequence number that invalidates
// the timeout timer if the same request is forwarded again.
type fwdRec struct {
	to  int
	seq uint64
}

// svc scales a CPU service time by the node's slow-node factor.
func (m *MDS) svc(t sim.Time) sim.Time {
	if m.slow <= 1 {
		return t
	}
	return sim.Time(float64(t) * m.slow)
}

// SetSlow scales the node's CPU and disk service times by factor
// (slow-node degradation); factor <= 1 restores normal speed.
func (m *MDS) SetSlow(factor float64) {
	if factor < 1 {
		factor = 1
	}
	m.slow = factor
	m.store.SetSlow(factor)
}

// StartFlusher begins the periodic write-flush ticker. The cluster
// calls it at Run time; a perpetual ticker must not be created during
// construction or engine Run() (drain-until-empty) would never return.
func (m *MDS) StartFlusher() {
	if m.cfg.WriteFlushInterval <= 0 {
		return
	}
	m.flusher = sim.NewTicker(m.eng, m.cfg.WriteFlushInterval, m.flushWrites)
	m.flusher.Start(0)
}

// StopFlusher halts the periodic write-flush ticker ahead of an
// endurance quiesce. The stopped ticker's already-scheduled tick fires
// as a no-op; Resume starts a fresh ticker.
func (m *MDS) StopFlusher() {
	if m.flusher != nil {
		m.flusher.Stop()
		m.flusher = nil
	}
}

// ID implements core.Node.
func (m *MDS) ID() int { return m.id }

// Cache implements core.Node.
func (m *MDS) Cache() *cache.Cache { return m.cache }

// Store exposes the node's storage subsystem.
func (m *MDS) Store() *storage.Store { return m.store }

// Load implements core.Node: the paper prototype's "weighted combination
// of node throughput and cache misses" (§5.1). Throughput is measured
// as offered load (request arrivals) so saturation is visible.
func (m *MDS) Load(now sim.Time) float64 {
	return m.opsRate.Value(now) + m.cfg.LoadMissWeight*m.missRate.Value(now)
}

// HitRate returns the node's cache hit rate so far.
func (m *MDS) HitRate() float64 { return m.cache.HitRate() }

// MaxQueues reports the deepest the node's three service-centre waiting
// lines have been: the resource a latency tail is parked behind. It is
// a diagnostic (sim.Server.MaxQueue), not state: it restarts on restore.
func (m *MDS) MaxQueues() (cpu, readDisk, logDisk int) {
	readDisk, logDisk = m.store.MaxQueues()
	return m.cpu.MaxQueue, readDisk, logDisk
}

// Receive accepts a request arriving over the network (from a client or
// a forwarding peer).
func (m *MDS) Receive(req *msg.Request) {
	if m.failed {
		m.Stats.Dropped++
		return
	}
	if m.cfg.FwdTimeout > 0 && req.Via >= 0 {
		// Ack the forward so the forwarder's timeout stands down; only a
		// live node acks, which is exactly the death signal the
		// suspicion machinery needs.
		via := req.Via
		req.Via = -1
		m.fab.Send(net.FwdAck, m.id, via, net.Bytes(net.FwdAck),
			fwdAckArrive, m.cluster.Node(via), req)
	}
	m.Stats.Received++
	if req.Hops == 0 {
		m.Stats.ClientArrivals++
	}
	// Demand is counted on arrival: when a node saturates, its served
	// throughput caps out, but its offered load keeps rising — the
	// balancer must see the latter.
	m.opsRate.Add(m.eng.Now(), 1)
	m.cpu.SubmitCall(m.svc(m.cfg.CPUService), mdsProcess, m, req)
}

// fwdAckArrive lands a FwdAck at the forwarder: the outstanding-forward
// record is retired and the destination, having proven itself alive, is
// exonerated of any accumulated suspicion.
func fwdAckArrive(a, b any) {
	f := a.(*MDS)
	req := b.(*msg.Request)
	rec, ok := f.pendingFwd[req]
	if !ok {
		return // timer already fired, or the node failed in between
	}
	// A very late ack can race a re-forward of the same request and
	// retire the newer record; the client's retry timeout backstops any
	// request lost that way, so the race costs accuracy, not liveness.
	delete(f.pendingFwd, req)
	if f.fc != nil && !f.failed {
		f.fc.Exonerate(rec.to)
	}
}

func mdsProcess(a, b any) { a.(*MDS).process(b.(*msg.Request)) }

// mdsReceive delivers a forwarded request at its destination peer.
func mdsReceive(a, b any) { a.(*MDS).Receive(b.(*msg.Request)) }

// authorityFor resolves the node responsible for serving the request.
func (m *MDS) authorityFor(req *msg.Request) int {
	if req.Op == msg.Create || req.Op == msg.Mkdir {
		return m.strat.AuthorityForName(req.Target, req.NewName)
	}
	return m.strat.Authority(req.Target)
}

func (m *MDS) process(req *msg.Request) {
	if m.failed {
		// The node died with this request still queued on its CPU.
		m.Stats.Dropped++
		return
	}
	auth := m.authorityFor(req)
	if auth != m.id {
		// Monotonic size updates are absorbed by any node holding a
		// replica of the target (§4.2) and flushed later.
		if req.Op == msg.Write && m.cache.Contains(req.Target.ID) {
			m.cache.Get(req.Target.ID)
			m.absorbWrite(req)
			return
		}
		// A read of widely replicated metadata can be served from the
		// local replica: the whole point of traffic control (§4.4) and of
		// hot-directory fan-out (internal/lease).
		if !req.Op.IsUpdate() && m.advertised(req.Target) && m.cache.Contains(req.Target.ID) {
			m.cache.Get(req.Target.ID)
			m.Stats.ReplicaServes++
			m.bumpPopularity(req.Target)
			m.reply(req)
			return
		}
		if m.cfg.FwdTimeout > 0 && m.fc != nil && m.fc.NodeDown(auth) {
			// The authority is confirmed down and nothing here can serve
			// the request; dead-letter it. The client's retry timeout
			// covers the loss — and under the dynamic strategy the
			// suspicion machinery re-delegates the subtrees, so the next
			// resolution lands on a live node.
			m.Stats.DeadLetters++
			return
		}
		m.forward(req, auth)
		return
	}
	m.serve(req)
}

func (m *MDS) forward(req *msg.Request, to int) {
	m.Stats.Forwarded++
	if m.OnForward != nil {
		m.OnForward(m.id, req, m.eng.Now())
	}
	m.maybePreemptiveReplicate(req)
	req.Hops++
	if m.cfg.FwdTimeout > 0 {
		req.Via = m.id
		m.armFwdTimeout(req, to)
	}
	peer := m.cluster.Node(to)
	m.fab.Send(net.Forward, m.id, to, net.Bytes(net.Forward), mdsReceive, peer, req)
}

// armFwdTimeout starts the forward→ack watchdog: if no FwdAck retires
// the record in time, the destination is reported suspect and the
// request is re-dispatched through authority resolution — by then
// suspicion may have re-delegated the subtree to a live node.
func (m *MDS) armFwdTimeout(req *msg.Request, to int) {
	if m.pendingFwd == nil {
		m.pendingFwd = make(map[*msg.Request]fwdRec)
	}
	m.fwdSeq++
	seq := m.fwdSeq
	m.pendingFwd[req] = fwdRec{to: to, seq: seq}
	m.eng.After(m.cfg.FwdTimeout, func() {
		rec, ok := m.pendingFwd[req]
		if !ok || rec.seq != seq || m.failed {
			return
		}
		delete(m.pendingFwd, req)
		m.Stats.FwdTimeouts++
		if m.fc != nil {
			m.fc.Suspect(m.id, rec.to)
		}
		m.process(req)
	})
}

// maybePreemptiveReplicate implements §5.4's suggested improvement: a
// node flooded with forwards for one item pulls a replica itself
// instead of waiting for the authority to push one.
func (m *MDS) maybePreemptiveReplicate(req *msg.Request) {
	if m.tc == nil || !m.tc.Enabled || m.tc.PreemptiveThreshold <= 0 || req.Op.IsUpdate() {
		return
	}
	target := req.Target
	tags := partition.TagsOf(target)
	m.eng.Defer(bumpFwdPop, m, target)
	// In serial execution the Defer above already ran, so the counter
	// is touched and Peek sees the fresh bump exactly as Value did.
	// Sharded, a counter the barrier has not yet touched reads as "not
	// flooded".
	if !tags.FwdTouched {
		return
	}
	if tags.FwdPop.Peek(m.eng.Now(), m.cfg.PopHalfLife) < m.tc.PreemptiveThreshold || m.cache.Contains(target.ID) {
		return
	}
	m.eng.Defer(notePreemptive, m, nil)
	// Pull the record from its authority and start advertising it as
	// widely replicated; the authority's policy may consolidate later.
	m.fetchRecord(target, cache.Replica, preemptiveInstalled, m, target)
}

func preemptiveInstalled(a, b any) {
	m := a.(*MDS)
	m.eng.Defer(preemptiveTagApply, m, b)
}

// preemptiveTagApply records the pulled replica in shared inode state.
func preemptiveTagApply(a, b any) {
	m := a.(*MDS)
	target := b.(*namespace.Inode)
	tags := partition.TagsOf(target)
	tags.SetReplica(m.id)
	tags.ReplicatedAll = true
}

// serve handles a request this node is authoritative for.
func (m *MDS) serve(req *msg.Request) {
	if m.strat.NeedsPathTraversal() {
		m.servePath(req)
		return
	}
	m.fetchTarget(req)
}

func mdsServePath(a, b any) { a.(*MDS).servePath(b.(*msg.Request)) }

// servePath brings the ancestor chain (root downward) into the cache,
// fetching missing prefixes from disk or their authoritative peers.
// Each fetch completion resumes the scan; the parent-chain walk uses no
// scratch slice, so the all-cached fast path allocates nothing.
func (m *MDS) servePath(req *msg.Request) {
	// Highest uncached ancestor: the last miss seen walking upward.
	var missing *namespace.Inode
	for c := req.Target.Parent(); c != nil; c = c.Parent() {
		if !m.cache.Contains(c.ID) {
			missing = c
		}
	}
	if missing == nil {
		m.fetchTarget(req)
		return
	}
	m.fetchRecord(missing, cache.Prefix, mdsServePath, m, req)
}

// fetchRecord brings one record into the cache, coalescing concurrent
// fetches of the same inode into a single I/O or peer round trip.
// fn(a, b) runs once the record is cached.
func (m *MDS) fetchRecord(ino *namespace.Inode, cl cache.Class, fn sim.EventFunc, a, b any) {
	if waiters, inFlight := m.pending[ino.ID]; inFlight {
		m.pending[ino.ID] = append(waiters, pendingCall{fn, a, b})
		return
	}
	m.pending[ino.ID] = nil
	m.noteMiss()
	f := m.getFetch()
	f.ino, f.cl, f.fn, f.a, f.b = ino, cl, fn, a, b
	auth := m.strat.Authority(ino)
	if auth == m.id {
		m.diskLoad(f)
		return
	}
	if m.cfg.FetchTimeout > 0 && m.fc != nil && m.fc.NodeDown(auth) {
		// The authority is confirmed down; skip the doomed round trip
		// and read the record from the shared store directly (§2.1.2).
		m.diskLoad(f)
		return
	}
	// Remote record: round trip to the authority, then install a
	// replica locally (for prefixes, the overhead Figure 3 measures).
	m.Stats.RemoteFetches++
	f.peer = auth
	if m.cfg.FetchTimeout > 0 {
		m.armFetchTimeout(f)
	}
	peer := m.cluster.Node(auth)
	m.fab.Send(net.FetchReq, m.id, auth, net.Bytes(net.FetchReq), remoteFetchAtPeer, peer, f)
}

// armFetchTimeout starts the remote-fetch watchdog: if the peer's
// response has not installed the record in time, the fetch falls back
// to this node's own read of the shared store — the remote round trip
// is an optimisation, not a dependency (§2.1.2). The done flag keeps a
// late response and the fallback from double-finishing the fetch.
//
// A fetch timeout deliberately does NOT report the peer suspect: the
// response rides behind the peer's disk queue, so during a cold-start
// or hot-spot burst a perfectly live peer can blow the deadline by
// seconds, and striking here confirms healthy nodes dead cluster-wide.
// Liveness suspicion comes only from the forward-ack path, whose ack is
// sent before CPU/disk service and is therefore queue-independent.
func (m *MDS) armFetchTimeout(f *fetch) {
	m.eng.After(m.cfg.FetchTimeout, func() {
		if f.done || m.failed {
			return
		}
		m.Stats.FetchTimeouts++
		m.diskLoad(f)
	})
}

func (m *MDS) getFetch() *fetch {
	if n := len(m.fetchPool); n > 0 {
		f := m.fetchPool[n-1]
		m.fetchPool[n-1] = nil
		m.fetchPool = m.fetchPool[:n-1]
		return f
	}
	return &fetch{m: m}
}

// putFetch releases a carrier back to its owning node's pool. Only the
// dispatch that consumed the carrier may call it (see DESIGN.md). With
// FetchTimeout armed, carriers are not recycled at all: a timed-out
// carrier may still be referenced by a watchdog timer or a late remote
// response, and reuse would let those resume the wrong fetch.
func (m *MDS) putFetch(f *fetch) {
	if !m.poolFetch {
		return
	}
	f.ino, f.fn, f.a, f.b = nil, nil, nil, nil
	f.peer, f.done = 0, false
	m.fetchPool = append(m.fetchPool, f)
}

// finishFetch completes a coalesced fetch: it releases the carrier,
// then runs the initiator's continuation and every waiter.
func finishFetch(f *fetch) {
	f.done = true
	m, ino, fn, a, b := f.m, f.ino, f.fn, f.a, f.b
	m.putFetch(f)
	waiters := m.pending[ino.ID]
	delete(m.pending, ino.ID)
	fn(a, b)
	for _, w := range waiters {
		w.fn(w.a, w.b)
	}
}

// remoteFetchAtPeer runs at the authoritative peer after one forward
// hop: serve the fetch, then hop back and install.
func remoteFetchAtPeer(a, b any) {
	peer := a.(*MDS)
	f := b.(*fetch)
	peer.handleFetch(f.ino, remoteFetchReturn, f, peer)
}

func remoteFetchReturn(x, p any) {
	f := x.(*fetch)
	peer := p.(*MDS)
	f.m.fab.Send(net.FetchResp, peer.id, f.m.id, net.Bytes(net.FetchResp), remoteFetchInstall, f, nil)
}

func remoteFetchInstall(x, _ any) {
	f := x.(*fetch)
	m := f.m
	if m.failed || f.done {
		// The node died, or the watchdog already fell back to a local
		// disk read: the late response must not finish the fetch again.
		return
	}
	if m.cfg.FetchTimeout > 0 && m.fc != nil {
		m.fc.Exonerate(f.peer)
	}
	m.installPrefix(f.ino)
	finishFetch(f)
}

// installPrefix caches a remotely fetched ancestor. Ancestors above it
// are already cached (ensurePath works root-down), so InsertPath only
// adds this record.
func (m *MDS) installPrefix(ino *namespace.Inode) {
	if _, err := m.cache.InsertPath(ino, cache.Prefix, false); err != nil {
		// The chain above was evicted while the fetch was in flight;
		// fall back to a detached record.
		m.cache.InsertDetached(ino, cache.Prefix, false)
	}
	m.eng.Defer(setReplicaTag, ino, m)
}

// handleFetch serves a peer's request for one inode record. fn(a, b)
// runs once the record is available at this node. The request threads
// through this node's CPU and disk on a carrier drawn from this node's
// own pool (the caller's carrier belongs to the caller's pool).
func (m *MDS) handleFetch(ino *namespace.Inode, fn sim.EventFunc, a, b any) {
	if m.failed {
		return
	}
	m.Stats.PeerFetchServes++
	pf := m.getFetch()
	pf.ino, pf.fn, pf.a, pf.b = ino, fn, a, b
	m.cpu.SubmitCall(m.svc(m.cfg.PeerService), peerFetchServe, pf, nil)
}

func peerFetchServe(x, _ any) {
	pf := x.(*fetch)
	m := pf.m
	if m.cache.Contains(pf.ino.ID) {
		m.cache.Get(pf.ino.ID)
		fn, a, b := pf.fn, pf.a, pf.b
		m.putFetch(pf)
		fn(a, b)
		return
	}
	// Load just this record; a single-record read regardless of
	// layout keeps peer fetches cheap and terminating.
	m.noteMiss()
	m.store.ReadInodeCall(pf.ino.ID, peerFetchLoaded, pf, nil)
}

func peerFetchLoaded(x, _ any) {
	pf := x.(*fetch)
	m := pf.m
	m.cache.InsertDetached(pf.ino, cache.Prefix, false)
	fn, a, b := pf.fn, pf.a, pf.b
	m.putFetch(pf)
	fn(a, b)
}

// fetchTarget ensures the operation's target record is cached, then
// completes the operation.
func (m *MDS) fetchTarget(req *msg.Request) {
	target := req.Target
	if m.cache.Contains(target.ID) {
		m.cache.Get(target.ID)
		m.finishServe(req)
		return
	}
	// Every request that found its target uncached is a demand miss,
	// whether or not the fetch below coalesces with one in flight.
	m.cache.NoteMiss()
	if m.strat.NeedsPathTraversal() {
		m.fetchRecord(target, cache.Auth, mdsFinishServe, m, req)
		return
	}
	// Scattered per-inode layout without traversal (Lazy Hybrid);
	// still coalesce duplicate in-flight fetches.
	if waiters, inFlight := m.pending[target.ID]; inFlight {
		m.pending[target.ID] = append(waiters, pendingCall{mdsFinishServe, m, req})
		return
	}
	m.pending[target.ID] = nil
	m.noteMiss()
	m.store.ReadInodeCall(target.ID, scatteredTargetLoaded, m, req)
}

func mdsFinishServe(a, b any) { a.(*MDS).finishServe(b.(*msg.Request)) }

// scatteredTargetLoaded completes a scattered-layout target read: cache
// the record, serve the initiating request, then every coalesced waiter.
func scatteredTargetLoaded(a, b any) {
	m := a.(*MDS)
	req := b.(*msg.Request)
	if m.failed {
		return
	}
	target := req.Target
	m.cache.InsertDetached(target, cache.Auth, false)
	waiters := m.pending[target.ID]
	delete(m.pending, target.ID)
	m.finishServe(req)
	for _, w := range waiters {
		w.fn(w.a, w.b)
	}
}

// diskLoad reads the record carried by f from this node's store and
// inserts it (plus, for directory-granular layouts, its embedded
// siblings as warm prefetches).
func (m *MDS) diskLoad(f *fetch) {
	if !m.strat.DirGranular() {
		m.store.ReadInodeCall(f.ino.ID, inodeLoaded, f, nil)
		return
	}
	parent := f.ino.Parent()
	records := 1
	if parent != nil {
		records = 1 + parent.NumChildren()
	}
	// The object read is the parent directory's object (or the inode's
	// own object at the root).
	obj := f.ino.ID
	if parent != nil {
		obj = parent.ID
	}
	m.store.ReadDirCall(obj, records, dirLoaded, f, nil)
}

func inodeLoaded(x, _ any) {
	f := x.(*fetch)
	m := f.m
	if m.failed || f.done {
		return
	}
	m.insertLoaded(f.ino, f.cl)
	finishFetch(f)
}

func dirLoaded(x, _ any) {
	f := x.(*fetch)
	m := f.m
	if m.failed || f.done {
		return
	}
	ino := f.ino
	m.insertLoaded(ino, f.cl)
	// Embedded inodes: the whole directory came along; insert the
	// siblings near the LRU tail (§4.5).
	if parent := ino.Parent(); parent != nil {
		for _, sib := range parent.Children() {
			if sib == ino || m.cache.Contains(sib.ID) {
				continue
			}
			sibClass := cache.Replica
			if m.strat.Authority(sib) == m.id {
				sibClass = cache.Auth
			}
			if _, err := m.cache.InsertPath(sib, sibClass, !m.cfg.PrefetchHot); err != nil {
				break // parent chain evicted mid-load; stop prefetching
			}
			if sibClass == cache.Replica {
				m.eng.Defer(setReplicaTag, sib, m)
			}
		}
	}
	finishFetch(f)
}

func (m *MDS) insertLoaded(ino *namespace.Inode, cl cache.Class) {
	if _, err := m.cache.InsertPath(ino, cl, false); err != nil {
		m.cache.InsertDetached(ino, cl, false)
	}
}

// finishServe runs once the target record is cached: Lazy Hybrid
// staleness, update application, popularity accounting, traffic-control
// decisions, and the reply.
func (m *MDS) finishServe(req *msg.Request) {
	target := req.Target
	// Lazy Hybrid: a stale dual-entry ACL must be refreshed before the
	// op can proceed — one (lazy) propagation trip plus a log commit.
	if m.lh != nil && m.lh.Stale(target) {
		// The dual-entry refresh writes shared ACL state; Apply is
		// idempotent, so window-concurrent trips converge at the barrier.
		m.eng.Defer(lhApplyTag, m, target)
		m.Stats.LHApplied++
		// One lazy propagation round trip (priced at 2×Fwd by the
		// model), carried on the node's loopback link, then a commit.
		m.fab.Send(net.LHPropagate, m.id, m.id, net.Bytes(net.LHPropagate), lhPropagated, m, req)
		return
	}
	m.finishServe2(req)
}

func lhPropagated(a, b any) {
	m := a.(*MDS)
	req := b.(*msg.Request)
	if m.failed {
		return
	}
	m.Stats.Commits++
	m.store.CommitCall(req.Target.ID, lhCommitted, m, req)
}

// lhCommitted resumes the op once the refreshed ACL is in the bounded
// log (§4.6).
func lhCommitted(a, b any) {
	if m := a.(*MDS); !m.failed {
		m.finishServe2(b.(*msg.Request))
	}
}

func (m *MDS) finishServe2(req *msg.Request) {
	target := req.Target
	if req.Op == msg.Readdir && m.strat.DirGranular() && target.IsDir() {
		// Directory-granular readdir touches the whole object; make
		// sure the contents are loaded (one I/O) so the common
		// readdir-then-stat sequence hits.
		missing := false
		for _, c := range target.Children() {
			if !m.cache.Contains(c.ID) {
				missing = true
				break
			}
		}
		if missing {
			m.loadDirContents(target, mdsCompleteOp, m, req)
			return
		}
	}
	m.completeOp(req)
}

func mdsCompleteOp(a, b any) { a.(*MDS).completeOp(b.(*msg.Request)) }

// loadDirContents fetches a directory's own object — its entries plus
// embedded child inodes — warming every child into the cache (§4.5).
// Concurrent loads of the same directory coalesce; the initiator is
// simply the first waiter, so completion order is initiator-first — and
// a load that outlives a crash and recovery finds the list Fail reset,
// not a continuation of its own, so it wakes nobody it should not.
func (m *MDS) loadDirContents(dir *namespace.Inode, fn sim.EventFunc, a, b any) {
	if waiters, inFlight := m.pendingDir[dir.ID]; inFlight {
		m.pendingDir[dir.ID] = append(waiters, pendingCall{fn, a, b})
		return
	}
	var waiters []pendingCall
	if n := len(m.dirWaiters); n > 0 {
		waiters = m.dirWaiters[n-1]
		m.dirWaiters[n-1] = nil
		m.dirWaiters = m.dirWaiters[:n-1]
	}
	m.pendingDir[dir.ID] = append(waiters, pendingCall{fn, a, b})
	m.noteMiss()
	m.store.ReadDirCall(dir.ID, 1+dir.NumChildren(), dirContentsLoaded, m, dir)
}

func dirContentsLoaded(x, y any) {
	m := x.(*MDS)
	dir := y.(*namespace.Inode)
	if m.failed {
		return
	}
	for _, c := range dir.Children() {
		if m.cache.Contains(c.ID) {
			continue
		}
		cl := cache.Replica
		if m.strat.Authority(c) == m.id {
			cl = cache.Auth
		}
		if _, err := m.cache.InsertPath(c, cl, !m.cfg.PrefetchHot); err != nil {
			break
		}
		if cl == cache.Replica {
			m.eng.Defer(setReplicaTag, c, m)
		}
	}
	waiters := m.pendingDir[dir.ID]
	delete(m.pendingDir, dir.ID)
	for i, w := range waiters {
		waiters[i] = pendingCall{}
		w.fn(w.a, w.b)
	}
	if waiters != nil {
		m.dirWaiters = append(m.dirWaiters, waiters[:0])
	}
}

func (m *MDS) completeOp(req *msg.Request) {
	target := req.Target
	if req.Op.IsUpdate() {
		if req.Applied {
			// A retried duplicate of an update that already committed:
			// answer without re-applying (idempotent re-delivery). The
			// first delivery mutated the namespace; re-running it would
			// double-apply the operation.
			m.finishReply(req)
			return
		}
		req.Applied = true
		// Recall outstanding client leases on every record this mutation
		// invalidates — before deferring the mutation, because the serial
		// path applies it immediately and Rename rewires target.Parent().
		// Write is exempt: size maxima are monotonic and absorbed (§4.2).
		if m.lease != nil && m.lease.Cfg.Enabled && req.Op != msg.Write {
			m.recallLeases(target)
			switch req.Op {
			case msg.Unlink:
				m.recallLeases(target.Parent())
			case msg.Rename:
				m.recallLeases(target.Parent())
				m.recallLeases(req.DstDir)
			}
		}
		// The namespace mutation lands at the barrier when sharded; the
		// client cannot observe the gap, because its reply travels at
		// least one lookahead of latency and so always arrives after the
		// barrier that applies the mutation.
		m.eng.Defer(mdsApplyUpdate, m, req)
		if req.Op != msg.Write {
			// Size updates are batched through the log by the
			// flusher; structural updates propagate immediately.
			m.propagateCoherence(target)
		}
		m.Stats.Commits++
		m.store.CommitCall(target.ID, commitFinishReply, m, req)
		return
	}
	if req.Op == msg.Stat {
		// Reads observe the latest size: call back to unflushed
		// writers first (§4.2). The no-unflushed-writers fast path
		// replies directly.
		if mask := m.statCallbackMask(req.Target); mask != 0 {
			m.statCallbackSlow(req, mask)
			return
		}
	}
	m.finishReply(req)
}

// commitFinishReply completes an update once its log append commits.
func commitFinishReply(a, b any) {
	m := a.(*MDS)
	if m.failed {
		return
	}
	m.finishReply(b.(*msg.Request))
}

// propagateCoherence pushes an updated record to every replica holder:
// "once an item is replicated in another MDS's cache, the authoritative
// MDS is responsible for communicating updates to maintain cache
// coherence" (§4.2).
func (m *MDS) propagateCoherence(target *namespace.Inode) {
	set := partition.TagsOf(target).ReplicaSet
	if set == 0 {
		return
	}
	for i := 0; i < m.cluster.NumMDS() && i < 64; i++ {
		if i == m.id || set&(1<<uint(i)) == 0 {
			continue
		}
		m.Stats.CoherenceSent++
		peer := m.cluster.Node(i)
		m.fab.Send(net.Coherence, m.id, i, net.Bytes(net.Coherence), coherenceArrive, peer, nil)
	}
}

func coherenceArrive(a, _ any) {
	peer := a.(*MDS)
	if peer.failed {
		return
	}
	peer.Stats.CoherenceReceived++
	peer.cpu.Submit(peer.svc(peer.cfg.PeerService), nil)
}

func (m *MDS) finishReply(req *msg.Request) {
	target := req.Target
	// Open/close bookkeeping runs once per request even if a retried
	// duplicate is answered again (req.Counted), so retries cannot leak
	// phantom opens that would pin orphans forever.
	switch req.Op {
	case msg.Open:
		if !req.Counted {
			req.Counted = true
			m.opens[target.ID]++
		}
	case msg.Close:
		if !req.Counted && m.opens[target.ID] > 0 {
			req.Counted = true
			m.opens[target.ID]--
			if m.opens[target.ID] == 0 {
				delete(m.opens, target.ID)
				if _, orphaned := m.orphans[target.ID]; orphaned {
					delete(m.orphans, target.ID)
					m.Stats.OrphansReaped++
					_ = m.cache.Remove(target.ID)
				}
			}
		}
	}
	m.bumpPopularity(target)
	// Peek reads the popularity counter and replication flag without
	// writing them; the flag flip and transition counters commit at the
	// barrier. Serially the deferred bump above has already run, so
	// Peek+Commit here is exactly the old Decide.
	if m.tc != nil {
		switch m.tc.Peek(m.eng.Now(), m.cfg.PopHalfLife, target) {
		case core.Replicate:
			m.pushReplicas(target)
			m.eng.Defer(tcCommitReplicate, m, target)
		case core.Consolidate:
			// Replicas stop being advertised and simply age out of
			// peer caches.
			m.eng.Defer(tcCommitConsolidate, m, target)
		}
	}
	m.maybeFanOut(target)
	m.reply(req)
}

// recallLeases sends a recall notice to the client edge for ino's
// outstanding leases. Outstanding is an upper bound (natural expiry
// never decrements it), so a recall may chase leases that already
// lapsed — one spurious notice, no coherence consequence. The
// generation bump is applied at the edge through the NoteRecalled
// applier so it lands exactly once, on the engine that owns delivery.
func (m *MDS) recallLeases(ino *namespace.Inode) {
	if ino == nil || !m.lease.Reg.Outstanding(ino.ID) {
		return
	}
	m.Stats.LeaseRecalls++
	m.fab.SendToEdge(0, net.LeaseRecall, m.id, net.Bytes(net.LeaseRecall), leaseRecallArrive, m, ino)
}

// maybeFanOut pushes replicas of a hot directory to peers ahead of
// demand (the server-side hotspot mechanism, internal/lease). The
// ReplicatedAll tag doubles as the "already fanned" marker and the
// client advertisement; when traffic control is active it owns the
// tag's hysteresis, so fan-out only un-fans under strategies running
// without it (the threshold regions never overlap).
func (m *MDS) maybeFanOut(target *namespace.Inode) {
	if m.lease == nil || !m.lease.Cfg.Fanout || !target.IsDir() || target.Parent() == nil {
		return
	}
	tags := partition.TagsOf(target)
	if !tags.PopTouched {
		return
	}
	pop := tags.Pop.Peek(m.eng.Now(), m.cfg.PopHalfLife)
	cfg := &m.lease.Cfg
	if !tags.ReplicatedAll {
		if pop < cfg.FanoutPopularity {
			return
		}
		n := m.cluster.NumMDS() - 1
		if cfg.FanoutPeers > 0 && n > cfg.FanoutPeers {
			n = cfg.FanoutPeers
		}
		if n <= 0 {
			return
		}
		for k := 1; k <= n; k++ {
			to := (m.id + k) % m.cluster.NumMDS()
			peer := m.cluster.Node(to)
			m.fab.Send(net.ReplicaInstall, m.id, to, net.Bytes(net.ReplicaInstall), installReplicaAt, peer, target)
		}
		m.Stats.ReplicaFanouts++
		m.Stats.ReplicasPushed += uint64(n)
		m.eng.Defer(fanoutTagSet, nil, target)
		return
	}
	if (m.tc == nil || !m.tc.Enabled) && pop < cfg.FanoutPopularity/10 {
		m.eng.Defer(fanoutTagClear, nil, target)
	}
}

func (m *MDS) bumpPopularity(ino *namespace.Inode) {
	m.eng.Defer(bumpPop, m, ino)
}

// applyUpdate mutates the shared namespace. Failed mutations (duplicate
// names, non-empty directories…) are treated as completed no-ops: the
// client still gets a reply, as a real MDS returns an error reply.
func (m *MDS) applyUpdate(req *msg.Request) {
	tree := m.cluster.Tree()
	switch req.Op {
	case msg.Create:
		if n, err := tree.Create(req.Target, req.NewName); err == nil {
			// Materialize the new inode's tag block while single
			// threaded (applyUpdate runs at the barrier when sharded):
			// the first window-time authority walk over it must not be
			// the allocation.
			_ = partition.TagsOf(n)
			m.cacheNew(n)
			m.dirObjectInsert(req.Target, n)
		}
	case msg.Mkdir:
		if n, err := tree.Mkdir(req.Target, req.NewName); err == nil {
			_ = partition.TagsOf(n)
			m.cacheNew(n)
			m.dirObjectInsert(req.Target, n)
		}
	case msg.Unlink:
		if !req.Target.IsDir() {
			id := req.Target.ID
			parent, name := req.Target.Parent(), req.Target.Name()
			if err := tree.Remove(req.Target); err == nil {
				m.dirObjectDelete(parent, name)
				if m.opens[id] > 0 {
					// Deleted while open: retain the record until the
					// last close (§4.5).
					m.orphans[id] = req.Target
					m.Stats.OrphansRetained++
				} else {
					_ = m.cache.Remove(id)
				}
			}
		}
	case msg.Chmod:
		tree.Chmod(req.Target, req.Target.Mode^0o022)
		m.dirObjectInsert(req.Target.Parent(), req.Target)
		if req.Target.IsDir() && m.lh != nil {
			m.lh.NoteDirUpdate(req.Target)
		}
	case msg.Write:
		m.applyWrite(req)
	case msg.Rename:
		if req.DstDir != nil {
			wasDir := req.Target.IsDir()
			oldParent, oldName := req.Target.Parent(), req.Target.Name()
			if err := tree.Rename(req.Target, req.DstDir, req.NewName); err == nil {
				m.dirObjectDelete(oldParent, oldName)
				m.dirObjectInsert(req.DstDir, req.Target)
				if wasDir && m.lh != nil {
					m.lh.NoteDirUpdate(req.Target)
				}
			}
		}
	}
	// Dynamic directory hashing reacts to growth/shrink (§4.3).
	if m.dyn != nil {
		dir := req.Target
		if !dir.IsDir() {
			if p := dir.Parent(); p != nil {
				dir = p
			}
		}
		m.dyn.MaybeHashDir(dir)
	}
}

// dirObjectInsert records an entry write in the long-term tier's
// per-directory B-tree object (§4.6). Only directory-granular layouts
// group entries into directory objects.
func (m *MDS) dirObjectInsert(dir, entry *namespace.Inode) {
	if m.store.Dirs == nil || dir == nil || !m.strat.DirGranular() {
		return
	}
	m.store.Dirs.Insert(dir.ID, dirstore.Record{
		Name: entry.Name(),
		Ino:  entry.ID,
		Kind: entry.Kind,
		Mode: entry.Mode,
		Size: entry.Size,
	})
}

// dirObjectDelete records an entry removal in the directory object.
func (m *MDS) dirObjectDelete(dir *namespace.Inode, name string) {
	if m.store.Dirs == nil || dir == nil || !m.strat.DirGranular() {
		return
	}
	m.store.Dirs.Delete(dir.ID, name)
}

// cacheNew caches a just-created inode on its authority (this node).
func (m *MDS) cacheNew(n *namespace.Inode) {
	if m.strat.NeedsPathTraversal() {
		m.insertLoaded(n, cache.Auth)
		return
	}
	m.cache.InsertDetached(n, cache.Auth, false)
}

// pushReplicas installs copies of a newly popular item across the
// cluster (§4.4).
func (m *MDS) pushReplicas(target *namespace.Inode) {
	for i := 0; i < m.cluster.NumMDS(); i++ {
		if i == m.id {
			continue
		}
		peer := m.cluster.Node(i)
		m.fab.Send(net.ReplicaInstall, m.id, i, net.Bytes(net.ReplicaInstall), installReplicaAt, peer, target)
	}
	m.Stats.ReplicasPushed += uint64(m.cluster.NumMDS() - 1)
}

func installReplicaAt(a, b any) { a.(*MDS).installReplica(b.(*namespace.Inode)) }

func (m *MDS) installReplica(target *namespace.Inode) {
	if m.failed {
		return
	}
	m.Stats.ReplicaInstalls++
	m.cpu.SubmitCall(m.svc(m.cfg.PeerService), installReplicaApply, m, target)
}

func installReplicaApply(a, b any) {
	m := a.(*MDS)
	target := b.(*namespace.Inode)
	if _, err := m.cache.InsertPath(target, cache.Replica, false); err != nil {
		m.cache.InsertDetached(target, cache.Replica, false)
	}
	m.eng.Defer(setReplicaTag, target, m)
}

// reply completes the request: hints tell the client where the target
// and its prefixes live (§4.4), steering future requests. When the
// cluster consumes replies on Deliver, the struct and its hint slice
// come from (and return to) the node's reply pool.
func (m *MDS) reply(req *msg.Request) {
	m.Stats.Served++
	now := m.eng.Now()
	if m.OnReply != nil {
		m.OnReply(m.id, req, now)
	}
	rep := m.getReply()
	rep.Req, rep.ServedBy = req, m.id
	// Identity and issue time are copied by value: the client matches
	// replies by (Client, ID, Gen) and computes latency from Issued, so
	// a duplicate reply stays recognisable (and harmless) even after
	// the request struct is recycled for a newer operation.
	rep.Client, rep.ID, rep.Gen, rep.Issued = req.Client, req.ID, req.Gen, req.Issued
	if !m.strat.ClientComputable() {
		rep.Hints = m.appendHints(rep.Hints[:0], req.Target)
	}
	// The fabric prices the hop (hints add bytes under the queued
	// model) and reports when the reply lands at the client edge. The
	// edge aggregates clients from every shard, so the destination shard
	// comes from the cluster's client→shard map (0 when unsharded, where
	// SendToEdge degenerates to Send).
	shard := 0
	if m.cloc != nil {
		shard = m.cloc.ClientShard(req.Client)
	}
	// Lease fields are value state on a pooled struct: reset them
	// unconditionally, then maybe grant. A grant rides the reply and
	// snapshots the recall generation now, at the authority — a recall
	// racing this grant bumps the shared generation, so the grant arrives
	// stale instead of resurrecting the lease.
	rep.Leased, rep.LeaseGen = false, 0
	if m.lease != nil && m.lease.Cfg.Enabled && !req.Op.IsUpdate() && m.lease.Reg.Leasable(req.Target.ID) {
		if tags := partition.TagsOf(req.Target); tags.PopTouched &&
			tags.Pop.Peek(now, m.cfg.PopHalfLife) >= m.lease.Cfg.GrantPopularity {
			rep.Leased, rep.LeaseGen = true, m.lease.Reg.Gen(req.Target.ID)
			m.eng.Defer(leaseNoteGrant, m.lease, req.Target)
			m.Stats.LeaseGrants++
			// The capability itself is in the reply; this envelope carries
			// the grant's wire cost and per-class conservation.
			m.fab.SendToEdge(shard, net.LeaseGrant, m.id,
				net.Bytes(net.LeaseGrant), leaseGrantArrive, nil, nil)
		}
	}
	rep.Completed = m.fab.SendToEdge(shard, net.Reply, m.id,
		net.ReplyBytes(len(rep.Hints)), mdsDeliver, m, rep)
}

func (m *MDS) getReply() *msg.Reply {
	if n := len(m.replyPool); n > 0 {
		rep := m.replyPool[n-1]
		m.replyPool[n-1] = nil
		m.replyPool = m.replyPool[:n-1]
		return rep
	}
	return &msg.Reply{}
}

// mdsDeliver hands the reply to the client and, when Deliver consumes
// it synchronously, recycles the struct. The client detaches rep.Req
// for its own pool inside Deliver, before the clear here.
func mdsDeliver(a, b any) {
	m := a.(*MDS)
	rep := b.(*msg.Reply)
	m.cluster.Deliver(rep)
	if m.poolReplies && !m.routedReplies {
		rep.Req = nil
		rep.Hints = rep.Hints[:0]
		m.replyPool = append(m.replyPool, rep)
	}
}

// TakeReply returns a consumed reply to this node's pool. When replies
// are routed (sharded execution), Deliver runs on the client's shard and
// parks the struct in that shard's return buffer; the barrier — single
// threaded, clocks synced — hands each reply back here.
func (m *MDS) TakeReply(rep *msg.Reply) {
	rep.Req = nil
	rep.Hints = rep.Hints[:0]
	m.replyPool = append(m.replyPool, rep)
}

// appendHints appends the distribution of the target and its prefix
// directories to hs (reusing its capacity). The root is never hinted:
// it is implicitly known to all clients and highly replicated. Order is
// root-first ancestors, then the target, as clients expect.
func (m *MDS) appendHints(hs []msg.Hint, target *namespace.Inode) []msg.Hint {
	var stack [64]*namespace.Inode
	n := 0
	for c := target.Parent(); c != nil && n < len(stack); c = c.Parent() {
		stack[n] = c
		n++
	}
	for i := n - 1; i >= 0; i-- {
		a := stack[i]
		if a.Parent() == nil {
			continue // root
		}
		hs = append(hs, msg.Hint{
			Ino:        a.ID,
			Authority:  m.strat.Authority(a),
			Replicated: m.advertised(a),
		})
	}
	if target.Parent() != nil {
		hs = append(hs, msg.Hint{
			Ino:        target.ID,
			Authority:  m.strat.Authority(target),
			Replicated: m.advertised(target),
		})
	}
	return hs
}

// advertised reports whether replies should tell clients the item is
// available cluster-wide: traffic control's hysteresis says so, or the
// fan-out mechanism has pushed it (which also advertises under
// strategies that run without traffic control).
func (m *MDS) advertised(ino *namespace.Inode) bool {
	if m.tc.Replicated(ino) {
		return true
	}
	return m.lease != nil && m.lease.Cfg.Fanout && partition.TagsOf(ino).ReplicatedAll
}

func (m *MDS) noteMiss() {
	m.Stats.CacheMissLoads++
	m.missRate.Add(m.eng.Now(), 1)
}

// ImportSubtree implements core.Node: install migrated cache state and
// charge the CPU for the transfer, briefly freezing request processing
// (the double-commit hand-off). The entries are by-value snapshots taken
// by the balancer at decision time (a barrier), so the deferred install
// below never reads the exporter's live cache across shards.
func (m *MDS) ImportSubtree(root *namespace.Inode, entries []core.Migrated) {
	m.Stats.Imported += uint64(len(entries))
	cost := m.svc(sim.Time(len(entries)+1) * m.cfg.ImportPerRecord)
	m.cpu.Submit(cost, func() {
		// Anchor the subtree: the new authority "must cache the
		// containing directory (prefix) inodes for each of its
		// subtrees" (§4.3).
		if _, err := m.cache.InsertPath(root, cache.Auth, false); err != nil {
			m.cache.InsertDetached(root, cache.Auth, false)
		}
		// Insert parents before children so path insertion succeeds.
		byDepth := make(map[int][]core.Migrated)
		maxD := 0
		for _, e := range entries {
			d := e.Ino.Depth()
			byDepth[d] = append(byDepth[d], e)
			if d > maxD {
				maxD = d
			}
		}
		for d := 0; d <= maxD; d++ {
			for _, e := range byDepth[d] {
				if _, err := m.cache.InsertPath(e.Ino, e.Class, false); err != nil {
					m.cache.InsertDetached(e.Ino, e.Class, false)
				}
				// A migrated replica now lives here: record this node in
				// the inode's replica set. The exporter's bit stays until
				// its own eviction, matching the bulk-removal rule. (Found
				// by chaos fuzzing: crash-driven re-delegations migrated
				// Replica entries whose replica sets named only the old
				// holders.)
				if e.Class == cache.Replica {
					m.eng.Defer(setReplicaTag, e.Ino, m)
				}
			}
		}
	})
}

// EvictSubtree implements core.Node: the exporter discards state for a
// migrated-away subtree.
func (m *MDS) EvictSubtree(root *namespace.Inode) {
	n := m.cache.CountUnder(root)
	m.Stats.Exported += uint64(n)
	cost := m.svc(sim.Time(n+1) * m.cfg.ImportPerRecord)
	m.cpu.Submit(cost, func() {
		m.cache.RemoveSubtree(root)
	})
}

// Fail marks the node down: it drops arrivals and abandons in-flight
// work. Part of the failover extension. Coalesced-fetch waiter maps are
// reset: their callbacks will never fire (the node is dead), and a
// post-recovery fetch for the same inode must not coalesce onto a dead
// waiter list and hang forever.
func (m *MDS) Fail() {
	m.failed = true
	// A crash loses volatile memory: the whole cache goes (silently —
	// a dead node sends no evict notices) and so do the absorbed write
	// maxima. Shed the per-inode bits naming this node as they go, or a
	// later recovery would resurrect replica-set and unflushed-writer
	// entries for copies that no longer exist. (Found by chaos fuzzing:
	// a crash-recovery schedule left the recovered node serving stale
	// Replica entries absent from their inodes' replica sets.)
	m.cache.Clear(func(e *cache.Entry) {
		partition.TagsOf(e.Ino).ClearReplica(m.id)
	})
	tree := m.cluster.Tree()
	for id := range m.sizePending {
		if ino, ok := tree.ByID(id); ok {
			m.clearUnflushed(ino)
		}
	}
	m.sizePending = make(map[namespace.InodeID]int64)
	m.pending = make(map[namespace.InodeID][]pendingCall)
	m.pendingDir = make(map[namespace.InodeID][]pendingCall)
	if m.pendingFwd != nil {
		m.pendingFwd = make(map[*msg.Request]fwdRec)
	}
}

// Failed reports whether the node is down.
func (m *MDS) Failed() bool { return m.failed }

// Recover brings the node back and pre-warms its cache from the bounded
// log's working set (§4.6): "the log represents an approximation of that
// node's working set, allowing the memory cache to be quickly preloaded".
func (m *MDS) Recover() int {
	m.failed = false
	warmed := 0
	tree := m.cluster.Tree()
	for _, id := range m.store.WorkingSet() {
		ino, ok := tree.ByID(id)
		if !ok {
			continue
		}
		if _, err := m.cache.InsertPath(ino, cache.Auth, true); err != nil {
			m.cache.InsertDetached(ino, cache.Auth, true)
		}
		warmed++
	}
	return warmed
}
