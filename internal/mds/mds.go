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
	"math"

	"dynmds/internal/cache"
	"dynmds/internal/core"
	"dynmds/internal/lease"
	"dynmds/internal/metrics"
	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/net"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/storage"
)

// The per-node service model (§5.1: "average disk latencies and
// transactional throughputs only").
const (
	// cpuService is the processing time per request at the serving node.
	cpuService = 300 * sim.Microsecond
	// peerService is the (smaller) CPU time to serve a peer's prefix
	// fetch or install a pushed replica.
	peerService = 100 * sim.Microsecond
	// importPerRecord is the CPU time per record to import or export a
	// migrated subtree; it makes migrations briefly freeze the node.
	importPerRecord = 5 * sim.Microsecond
	// loadMissWeight weights cache misses against throughput in the
	// balancer's load metric (§5.1).
	loadMissWeight = 10
	// rateHalfLife smooths the throughput/miss rates used for load.
	rateHalfLife = 5 * sim.Second
	// writeFlushInterval is the period at which replicas flush absorbed
	// monotonic size updates to authorities (§4.2).
	writeFlushInterval = sim.Second
)

// Fault-mode timeouts, armed by EnableFaults.
const (
	// fetchTimeout bounds a remote prefix-fetch round trip; on expiry
	// the fetch falls back to this node's own read of the shared store —
	// any node can read any record (§2.1.2), the peer round trip is
	// only an optimisation. It must dwarf a loaded peer's disk queue
	// (the response rides behind its read disk), or cold caches trigger
	// storms of duplicate reads: it is a lost-message backstop, not a
	// failure detector.
	fetchTimeout = 400 * sim.Millisecond
	// fwdTimeout bounds the forward→ack handshake: a node receiving a
	// forwarded request acks it back to the forwarder (net.FwdAck); a
	// missing ack reports the peer suspect and the forwarder re-resolves
	// the authority and re-dispatches. The ack is sent before CPU/disk
	// service, so the deadline only covers two network hops plus
	// scheduling noise.
	fwdTimeout = 20 * sim.Millisecond
)

// Config holds the per-node settings runs vary.
type Config struct {
	// CacheCapacity is the cache size in records.
	CacheCapacity int
	// Storage configures the two-tier store.
	Storage storage.Config

	// Ablation knob (see DESIGN.md).
	//
	// PrefetchHot inserts prefetched siblings at the hot MRU end
	// instead of near the LRU tail, letting speculation displace known
	// useful entries (the policy §4.5 argues against).
	PrefetchHot bool
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig(cacheCapacity int) Config {
	return Config{
		CacheCapacity: cacheCapacity,
		Storage:       storage.DefaultConfig(cacheCapacity),
	}
}

// Cluster is the MDS's view of its surroundings: its peers, the shared
// namespace and fabric, the client edge, and the cluster-wide machinery
// (suspicion, lease recalls, measurement) a node reports to.
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
	// Writers returns the unflushed-writer masks every node of the
	// cluster shares.
	Writers() Writers

	// Suspect records one missed-timeout strike against peer, observed
	// by reporter; Exonerate clears the strikes against a peer that
	// proved alive; NodeDown reports whether peer has been confirmed
	// down. The cluster turns accumulated suspicion into failover
	// reassignment.
	Suspect(reporter, peer int)
	Exonerate(peer int)
	NodeDown(peer int) bool
	// LeaseRecallDeliver lands a recall notice from node from at the
	// client edge (bumping the shared recall generation) and acks it
	// back on the LeaseAck class. Only a node with a lease plane calls it.
	LeaseRecallDeliver(from int, target *namespace.Inode)
	// NoteReply and NoteForward observe a reply sent by node and a
	// forward, for time-series measurement.
	NoteReply(node int, now sim.Time)
	NoteForward(now sim.Time)
}

// Stats counts one node's activity.
type Stats struct {
	ClientArrivals uint64 // arrivals directly from clients
	Served         uint64 // replies sent (including replica serves)
	ReplicaServes  uint64
	Forwarded      uint64
	CacheMissLoads uint64 // fetches that went to disk or a peer
	RemoteFetches  uint64 // prefix fetches sent to peers
	Commits        uint64

	// Fault-injection machinery (zero in fault-free runs).
	FetchTimeouts uint64 // remote fetches that fell back to local disk
	FwdTimeouts   uint64 // forwards that missed their ack
	DeadLetters   uint64 // requests dropped: authority confirmed down

	// Distributed monotonic updates (§4.2).
	WritesAbsorbed uint64 // size updates absorbed at this replica

	// Lease plane (internal/lease): read leases granted on replies,
	// recall notices sent on mutations of leased records and recall
	// acks received back from the client edge. ReplicaFanouts counts
	// hot directories traffic control's directory rule pushed to peers.
	LeaseGrants    uint64
	LeaseRecalls   uint64
	LeaseAcks      uint64
	ReplicaFanouts uint64
}

// fetch threads one record load through its asynchronous steps (disk
// I/O or peer round trip) without per-step closures: the carrier is the
// single event payload, and the continuation rides inside it.
type fetch struct {
	m    *MDS
	ino  *namespace.Inode
	cl   cache.Class
	call sim.Call
	// peer is the authority a remote fetch was sent to (-1 for local
	// loads); done marks the fetch completed, so a timed-out fetch and
	// its late remote response cannot both finish it. Both are only
	// meaningful in fault mode.
	peer int
	done bool
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

	cpu   *sim.Server
	cache *cache.Cache
	store *storage.Store

	// tc is the cluster's traffic control (nil with no rule on): it makes
	// every hot-metadata decision this node carries out.
	tc *core.TrafficControl
	// sub is non-nil for a subtree partition (directory hashing hook).
	sub *partition.Subtree
	// lh is non-nil for the Lazy Hybrid strategy.
	lh *partition.LazyHybrid

	// opsRate and missRate are read with rateHalfLife.
	opsRate  metrics.Decay
	missRate metrics.Decay

	// pending coalesces concurrent fetches of the same record: one I/O
	// (or peer fetch) serves every waiter. pendingDir does the same for
	// whole-directory content loads. Waiters are stored as calls by
	// value, so coalescing allocates no closures.
	pending    map[namespace.InodeID][]sim.Call
	pendingDir map[namespace.InodeID][]sim.Call
	// waiterLists recycles both maps' waiter lists, emptied (addWaiter,
	// wake), so coalescing in steady state allocates nothing.
	waiterLists [][]sim.Call

	// fetchPool lends the fetch carriers that thread a record load
	// through its disk or peer round trip; replyPool lends reply structs
	// (with their hint slices), which the cluster consumes synchronously
	// on Deliver. Pooled objects are released only by the dispatch that
	// consumes them, never while an engine event still references them
	// (see DESIGN.md, "Pooling rules").
	fetchPool sim.Pool[fetch]
	replyPool sim.Pool[msg.Reply]

	// sizePending holds locally absorbed monotonic size updates not
	// yet flushed to authorities (§4.2); writers is the cluster's
	// record of which nodes hold such updates, per inode.
	sizePending map[namespace.InodeID]int64
	writers     Writers

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
	// faults is set by EnableFaults: in fault mode the node arms the
	// forward-ack and fetch timeouts, reports suspicion to the cluster,
	// and turns off fetch-carrier pooling (a timed-out carrier may be
	// resumed by its late response). Fault-free runs never touch those
	// paths.
	faults bool
	// pendingFwd tracks forwards awaiting their FwdAck; the value's seq
	// invalidates stale timeout timers when a request is re-forwarded.
	pendingFwd map[*msg.Request]fwdRec
	fwdSeq     uint64

	// flusher is the periodic write-flush ticker, retained so the
	// endurance quiesce can stop and restart it.
	flusher *sim.Ticker

	// lease is the cluster's lease plane (nil when leases are off).
	lease *lease.Plane

	Stats Stats
}

// New creates a node. The strategy's concrete type activates optional
// behaviour: *partition.Subtree enables directory-hash checks,
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
		cache:       cache.New(cfg.CacheCapacity),
		store:       storage.New(eng, cfg.Storage),
		tc:          tc,
		pending:     make(map[namespace.InodeID][]sim.Call),
		pendingDir:  make(map[namespace.InodeID][]sim.Call),
		opens:       make(map[namespace.InodeID]int),
		orphans:     make(map[namespace.InodeID]*namespace.Inode),
		sizePending: make(map[namespace.InodeID]int64),
		writers:     cl.Writers(),
	}
	if s, ok := strat.(*partition.Subtree); ok {
		m.sub = s
	}
	if l, ok := strat.(*partition.LazyHybrid); ok {
		m.lh = l
	}
	m.slow = 1
	// When a replica (or remote prefix) is evicted, notify its
	// authority so it can drop the holder from the replica set and is
	// "free to remove its own copy from memory" (§4.2).
	m.cache.OnEvict = func(e *cache.Entry) {
		tags := partition.TagsOf(e.Ino)
		if !tags.HasReplica(m.id) {
			return
		}
		tags.ClearReplica(m.id)
		auth := m.strat.Authority(e.Ino)
		if auth == m.id {
			return
		}
		m.fab.Send(net.EvictNotice, m.id, auth, net.Bytes(net.EvictNotice), evictNoticeArrive, nil, nil)
	}
	return m
}

// evictNoticeArrive is the EvictNotice class's delivery continuation:
// the sender already cleared its replica bit, so arrival is pure
// accounting (the fabric's per-class counters conserve it).
func evictNoticeArrive(_, _ any) {}

// AttachLeasePlane gives the node the cluster's lease plane, whose
// registry its grants and recalls update.
func (m *MDS) AttachLeasePlane(p *lease.Plane) { m.lease = p }

// EnableFaults puts the node in fault mode: forwards are acked and time
// out after fwdTimeout, reporting the peer suspect to the cluster,
// remote fetches fall back to a local read after fetchTimeout, and
// requests for an authority the cluster confirms down are dead-lettered
// (the client's retry timeout covers them). The cluster calls it when
// its fault schedule is non-empty.
func (m *MDS) EnableFaults() { m.faults = true }

// NoteLeaseAck lands a LeaseAck from the client edge: the recall round
// trip is complete. Runs on this node's engine.
func (m *MDS) NoteLeaseAck() { m.Stats.LeaseAcks++ }

// leaseGrantArrive is the LeaseGrant class's delivery continuation: the
// capability itself rides the reply, so arrival is pure accounting (the
// fabric's per-class counters conserve it).
func leaseGrantArrive(_, _ any) {}

// leaseRecallArrive lands a LeaseRecall at the client edge, where the
// cluster's recall surface bumps the generation and acks back.
func leaseRecallArrive(a, b any) {
	m := a.(*MDS)
	m.cluster.LeaseRecallDeliver(m.id, b.(*namespace.Inode))
}

// call0 adapts a bare func() to a fabric delivery continuation, for the
// rare cold paths (write flushes, stat callbacks) that keep closures.
func call0(a, _ any) { a.(func())() }

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
	m.flusher = sim.NewTicker(m.eng, writeFlushInterval, m.flushWrites)
	m.flusher.Start()
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

// Cache implements core.Node.
func (m *MDS) Cache() *cache.Cache { return m.cache }

// Store exposes the node's storage subsystem.
func (m *MDS) Store() *storage.Store { return m.store }

// Load implements core.Node: the paper prototype's "weighted combination
// of node throughput and cache misses" (§5.1). Throughput is measured
// as offered load (request arrivals) so saturation is visible.
func (m *MDS) Load(now sim.Time) float64 {
	return m.opsRate.Value(now, rateHalfLife) + float64(loadMissWeight*m.missRate.Value(now, rateHalfLife))
}

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
		return
	}
	if m.faults && req.Via >= 0 {
		// Ack the forward so the forwarder's timeout stands down; only a
		// live node acks, which is exactly the death signal the
		// suspicion machinery needs.
		via := req.Via
		req.Via = -1
		m.fab.Send(net.FwdAck, m.id, via, net.Bytes(net.FwdAck),
			fwdAckArrive, m.cluster.Node(via), req)
	}
	if req.Hops == 0 {
		m.Stats.ClientArrivals++
	}
	// Demand is counted on arrival: when a node saturates, its served
	// throughput caps out, but its offered load keeps rising — the
	// balancer must see the latter.
	m.opsRate.Add(m.eng.Now(), rateHalfLife, 1)
	m.cpu.SubmitCall(m.svc(cpuService), mdsProcess, m, req)
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
	if !f.failed {
		f.cluster.Exonerate(rec.to)
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
		// local replica: the whole point of traffic control (§4.4), both
		// its rules.
		if !req.Op.IsUpdate() && m.tc.Replicated(req.Target) && m.cache.Contains(req.Target.ID) {
			m.cache.Get(req.Target.ID)
			m.Stats.ReplicaServes++
			m.bumpPopularity(req.Target)
			m.reply(req)
			return
		}
		if m.cluster.NodeDown(auth) {
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
	m.cluster.NoteForward(m.eng.Now())
	// Traffic control's pull rule (§5.4): a node flooded with forwards
	// for one item pulls a replica itself instead of waiting for the
	// authority to push one; the authority may consolidate it later.
	if m.tc.Pull(m.eng.Now(), req.Target, req.Op.IsUpdate()) && !m.cache.Contains(req.Target.ID) {
		m.fetchRecord(req.Target, cache.Replica, preemptiveInstalled, m, req.Target)
	}
	req.Hops++
	if m.faults {
		req.Via = m.id
		m.armFwdTimeout(req, to)
	}
	peer := m.cluster.Node(to)
	m.fab.Send(net.Forward, m.id, to, net.Bytes(net.Forward), mdsReceive, peer, req)
}

// armFwdTimeout starts the forward→ack watchdog: if no FwdAck retires
// the record in time, the destination is reported suspect and the
// request, unless its client has retired it, is re-dispatched through
// authority resolution — by then suspicion may have re-delegated the
// subtree to a live node.
func (m *MDS) armFwdTimeout(req *msg.Request, to int) {
	if m.pendingFwd == nil {
		m.pendingFwd = make(map[*msg.Request]fwdRec)
	}
	m.fwdSeq++
	seq := m.fwdSeq
	m.pendingFwd[req] = fwdRec{to: to, seq: seq}
	m.eng.After(fwdTimeout, func() {
		rec, ok := m.pendingFwd[req]
		if !ok || rec.seq != seq || m.failed {
			return
		}
		delete(m.pendingFwd, req)
		m.Stats.FwdTimeouts++
		m.cluster.Suspect(m.id, rec.to)
		if req.ID != 0 {
			m.process(req)
		}
	})
}

// preemptiveInstalled records the pulled replica in the inode's tags
// and has traffic control advertise it.
func preemptiveInstalled(a, b any) {
	m, target := a.(*MDS), b.(*namespace.Inode)
	partition.TagsOf(target).SetReplica(m.id)
	m.tc.NotePulled(target)
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
// fn(a, b) runs once the record is cached. Every record load takes this
// one path; only the source differs. A record this node is authority
// for is read from its own store; so is any record under Lazy Hybrid,
// whose create is served where the new name's path hashes while its
// parent's path may hash elsewhere (any node can read any record from
// the shared store, §2.1.2); and so is one whose authority is confirmed
// down, skipping the doomed round trip. Otherwise a peer round trip
// fetches it.
func (m *MDS) fetchRecord(ino *namespace.Inode, cl cache.Class, fn sim.EventFunc, a, b any) {
	if waiters, inFlight := m.pending[ino.ID]; inFlight {
		m.pending[ino.ID] = m.addWaiter(waiters, sim.Call{Fn: fn, A: a, B: b})
		return
	}
	m.pending[ino.ID] = nil
	m.noteMiss()
	f := m.fetchPool.Get()
	f.m, f.ino, f.cl = m, ino, cl
	f.call.Set(fn, a, b)
	auth := m.strat.Authority(ino)
	if auth == m.id || !m.strat.NeedsPathTraversal() || m.cluster.NodeDown(auth) {
		m.diskLoad(f)
		return
	}
	// Remote record: round trip to the authority, then install a
	// replica locally (for prefixes, the overhead Figure 3 measures).
	m.Stats.RemoteFetches++
	f.peer = auth
	if m.faults {
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
	m.eng.After(fetchTimeout, func() {
		if f.done || m.failed {
			return
		}
		m.Stats.FetchTimeouts++
		m.diskLoad(f)
	})
}

// putFetch releases a carrier back to its owning node's pool. Only the
// dispatch that consumed the carrier may call it (see DESIGN.md). In
// fault mode carriers are not recycled at all: a timed-out carrier may
// still be referenced by a watchdog timer or a late remote response,
// and reuse would let those resume the wrong fetch.
func (m *MDS) putFetch(f *fetch) {
	if m.faults {
		return
	}
	f.ino = nil
	f.call = sim.Call{}
	f.peer, f.done = 0, false
	m.fetchPool.Put(f)
}

// finishFetch completes a coalesced fetch: it releases the carrier,
// then runs the initiator's continuation and every waiter.
func finishFetch(f *fetch) {
	f.done = true
	m, ino, call := f.m, f.ino, f.call
	m.putFetch(f)
	waiters := m.pending[ino.ID]
	delete(m.pending, ino.ID)
	call.Run()
	m.wake(waiters)
}

// maxPooledWaiters is the largest waiter list wake recycles: a crowd's
// backlog grows a list far past the usual few, and pooling it would
// keep that backlog's memory for the rest of the run.
const maxPooledWaiters = 64

// addWaiter appends call to a coalesced fetch's waiter list, starting
// an absent list from a recycled one.
func (m *MDS) addWaiter(waiters []sim.Call, call sim.Call) []sim.Call {
	if n := len(m.waiterLists); waiters == nil && n > 0 {
		waiters = m.waiterLists[n-1]
		m.waiterLists[n-1] = nil
		m.waiterLists = m.waiterLists[:n-1]
	}
	return append(waiters, call)
}

// wake runs a finished fetch's waiters in order, and only then recycles
// the list — a waiter may start a fetch that takes a list from the pool
// — unless it grew past maxPooledWaiters.
func (m *MDS) wake(waiters []sim.Call) {
	for i, call := range waiters {
		waiters[i] = sim.Call{}
		call.Run()
	}
	if waiters != nil && cap(waiters) <= maxPooledWaiters {
		m.waiterLists = append(m.waiterLists, waiters[:0])
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
	m.cluster.Exonerate(f.peer)
	// A remotely fetched ancestor: the ones above it are already cached
	// (servePath works root-down), so only this record is added.
	m.insert(f.ino, cache.Prefix, false)
	partition.TagsOf(f.ino).SetReplica(m.id)
	finishFetch(f)
}

// insert caches ino below its ancestors, adding those missing, or
// detached when the chain cannot be cached (evicted while a load was in
// flight, or pinned full).
func (m *MDS) insert(ino *namespace.Inode, cl cache.Class, warm bool) {
	if _, err := m.cache.InsertPath(ino, cl, warm); err != nil {
		m.cache.InsertDetached(ino, cl, warm)
	}
}

// cacheLoaded caches a record this node read or created: below its
// ancestors under path traversal, detached under Lazy Hybrid, which
// keeps no prefixes.
func (m *MDS) cacheLoaded(ino *namespace.Inode, cl cache.Class) {
	if !m.strat.NeedsPathTraversal() {
		m.cache.InsertDetached(ino, cl, false)
		return
	}
	m.insert(ino, cl, false)
}

// handleFetch serves a peer's request for one inode record. fn(a, b)
// runs once the record is available at this node. The request threads
// through this node's CPU and disk on a carrier drawn from this node's
// own pool (the caller's carrier belongs to the caller's pool).
func (m *MDS) handleFetch(ino *namespace.Inode, fn sim.EventFunc, a, b any) {
	if m.failed {
		return
	}
	pf := m.fetchPool.Get()
	pf.m, pf.ino = m, ino
	pf.call.Set(fn, a, b)
	m.cpu.SubmitCall(m.svc(peerService), peerFetchServe, pf, nil)
}

func peerFetchServe(x, _ any) {
	pf := x.(*fetch)
	m := pf.m
	if m.cache.Contains(pf.ino.ID) {
		m.cache.Get(pf.ino.ID)
		call := pf.call
		m.putFetch(pf)
		call.Run()
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
	call := pf.call
	m.putFetch(pf)
	call.Run()
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
	m.fetchRecord(target, cache.Auth, mdsFinishServe, m, req)
}

func mdsFinishServe(a, b any) { a.(*MDS).finishServe(b.(*msg.Request)) }

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
	m.cacheLoaded(f.ino, f.cl)
	finishFetch(f)
}

func dirLoaded(x, _ any) {
	f := x.(*fetch)
	m := f.m
	if m.failed || f.done {
		return
	}
	ino := f.ino
	m.insert(ino, f.cl, false)
	// Embedded inodes: the whole directory came along.
	if parent := ino.Parent(); parent != nil {
		m.prefetchChildren(parent, ino)
	}
	finishFetch(f)
}

// prefetchChildren caches the uncached children of dir, bar skip, that
// came along in one read of its object: near the LRU tail (§4.5) unless
// the PrefetchHot ablation is on. It stops at the first that cannot be
// cached: the directory's chain was evicted mid-load.
func (m *MDS) prefetchChildren(dir, skip *namespace.Inode) {
	for _, c := range dir.Children() {
		if c == skip || m.cache.Contains(c.ID) {
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
			partition.TagsOf(c).SetReplica(m.id)
		}
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
		m.lh.Apply(target)
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
	waiters, inFlight := m.pendingDir[dir.ID]
	m.pendingDir[dir.ID] = m.addWaiter(waiters, sim.Call{Fn: fn, A: a, B: b})
	if inFlight {
		return
	}
	m.noteMiss()
	m.store.ReadDirCall(dir.ID, 1+dir.NumChildren(), dirContentsLoaded, m, dir)
}

func dirContentsLoaded(x, y any) {
	m := x.(*MDS)
	dir := y.(*namespace.Inode)
	if m.failed {
		return
	}
	m.prefetchChildren(dir, nil)
	waiters := m.pendingDir[dir.ID]
	delete(m.pendingDir, dir.ID)
	m.wake(waiters)
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
		// invalidates — before applying it, because Rename rewires
		// target.Parent().
		// Write is exempt: size maxima are monotonic and absorbed (§4.2).
		if m.lease != nil && req.Op != msg.Write {
			m.recallLeases(target)
			switch req.Op {
			case msg.Unlink:
				m.recallLeases(target.Parent())
			case msg.Rename:
				m.recallLeases(target.Parent())
				m.recallLeases(req.DstDir)
			}
		}
		m.applyUpdate(req)
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
	for i := 0; i < m.cluster.NumMDS(); i++ {
		if i == m.id || set&(1<<uint(i)) == 0 {
			continue
		}
		peer := m.cluster.Node(i)
		m.fab.Send(net.Coherence, m.id, i, net.Bytes(net.Coherence), coherenceArrive, peer, nil)
	}
}

func coherenceArrive(a, _ any) {
	peer := a.(*MDS)
	if peer.failed {
		return
	}
	peer.cpu.Submit(peer.svc(peerService), nil)
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
					_ = m.cache.Remove(target.ID)
				}
			}
		}
	}
	m.bumpPopularity(target)
	// Peek reads the fresh popularity and the replication flag; Commit
	// then flips the flag and counts the transition. On Consolidate the
	// replicas stop being advertised and simply age out of peer caches.
	if d := m.tc.Peek(m.eng.Now(), target); d != core.Keep {
		if d != core.Consolidate {
			m.pushReplicas(target)
		}
		if m.tc.Commit(d, target) && d == core.ReplicateDir {
			m.Stats.ReplicaFanouts++
		}
	}
	m.reply(req)
}

// recallLeases sends a recall notice to the client edge for ino's
// outstanding leases. Outstanding is an upper bound (natural expiry
// never decrements it), so a recall may chase leases that already
// lapsed — one spurious notice, no coherence consequence. The
// generation bump is applied where the notice lands, at the edge.
func (m *MDS) recallLeases(ino *namespace.Inode) {
	if ino == nil || !m.lease.Reg.Outstanding(ino.ID) {
		return
	}
	m.Stats.LeaseRecalls++
	m.fab.Send(net.LeaseRecall, m.id, m.fab.ClientEdge(), net.Bytes(net.LeaseRecall), leaseRecallArrive, m, ino)
}

func (m *MDS) bumpPopularity(ino *namespace.Inode) {
	partition.Popularity(ino).Add(m.eng.Now(), partition.PopHalfLife, 1)
}

// applyUpdate mutates the shared namespace. Failed mutations (duplicate
// names, non-empty directories…) are treated as completed no-ops: the
// client still gets a reply, as a real MDS returns an error reply.
func (m *MDS) applyUpdate(req *msg.Request) {
	tree := m.cluster.Tree()
	switch req.Op {
	case msg.Create:
		if n, err := tree.Create(req.Target, req.NewName); err == nil {
			m.cacheLoaded(n, cache.Auth)
		}
	case msg.Mkdir:
		if n, err := tree.Mkdir(req.Target, req.NewName); err == nil {
			m.cacheLoaded(n, cache.Auth)
		}
	case msg.Unlink:
		if !req.Target.IsDir() {
			id := req.Target.ID
			if err := tree.Remove(req.Target); err == nil {
				if m.opens[id] > 0 {
					// Deleted while open: retain the record until the
					// last close (§4.5).
					m.orphans[id] = req.Target
				} else {
					_ = m.cache.Remove(id)
				}
			}
		}
	case msg.Chmod:
		tree.Chmod(req.Target, req.Target.Mode^0o022)
		if req.Target.IsDir() && m.lh != nil {
			m.lh.NoteDirUpdate(req.Target)
		}
	case msg.Write:
		m.applyWrite(req)
	case msg.Rename:
		if req.DstDir != nil {
			wasDir := req.Target.IsDir()
			if err := tree.Rename(req.Target, req.DstDir, req.NewName); err == nil && wasDir && m.lh != nil {
				m.lh.NoteDirUpdate(req.Target)
			}
		}
	}
	// Dynamic directory hashing reacts to growth/shrink (§4.3).
	if m.sub != nil {
		dir := req.Target
		if !dir.IsDir() {
			if p := dir.Parent(); p != nil {
				dir = p
			}
		}
		m.sub.MaybeHashDir(dir)
	}
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
}

func installReplicaAt(a, b any) { a.(*MDS).installReplica(b.(*namespace.Inode)) }

func (m *MDS) installReplica(target *namespace.Inode) {
	if m.failed {
		return
	}
	m.cpu.SubmitCall(m.svc(peerService), installReplicaApply, m, target)
}

func installReplicaApply(a, b any) {
	m := a.(*MDS)
	target := b.(*namespace.Inode)
	m.insert(target, cache.Replica, false)
	partition.TagsOf(target).SetReplica(m.id)
}

// reply completes the request: hints tell the client where the target
// and its prefixes live (§4.4), steering future requests. The struct
// and its hint slice come from (and return to) the node's reply pool.
func (m *MDS) reply(req *msg.Request) {
	m.Stats.Served++
	now := m.eng.Now()
	m.cluster.NoteReply(m.id, now)
	rep := m.replyPool.Get()
	rep.Req = req
	// Identity and issue time are copied by value: the client accepts a
	// reply only while the request still carries its ID and computes
	// latency from Issued, so a duplicate reply stays recognisable (and
	// harmless) even after the request struct is retired or recycled.
	rep.Client, rep.ID, rep.Issued = req.Client, req.ID, req.Issued
	if !m.strat.ClientComputable() {
		rep.Hints = m.appendHints(rep.Hints[:0], req.Target)
	}
	// Lease fields are value state on a pooled struct: reset them
	// unconditionally, then grant if traffic control's lease rule says
	// so. A grant rides the reply and snapshots the recall generation
	// now, at the authority — a recall racing this grant bumps the shared
	// generation, so the grant arrives stale instead of resurrecting it.
	rep.Leased, rep.LeaseGen = false, 0
	if m.tc.Grant(now, req.Target, req.Op.IsUpdate()) && m.lease.Reg.Leasable(req.Target.ID) {
		rep.Leased, rep.LeaseGen = true, m.lease.Reg.Gen(req.Target.ID)
		m.lease.Reg.NoteGrant(req.Target.ID)
		m.Stats.LeaseGrants++
		// The capability itself is in the reply; this envelope carries
		// the grant's wire cost and per-class conservation.
		m.fab.Send(net.LeaseGrant, m.id, m.fab.ClientEdge(),
			net.Bytes(net.LeaseGrant), leaseGrantArrive, nil, nil)
	}
	// The fabric prices the hop (hints add bytes under the queued
	// model) and reports when the reply lands at the client edge.
	rep.Completed = m.fab.Send(net.Reply, m.id, m.fab.ClientEdge(),
		net.ReplyBytes(len(rep.Hints)), mdsDeliver, m, rep)
}

// mdsDeliver hands the reply to the client and recycles the struct:
// Deliver consumes it synchronously and keeps no reference. The client
// detaches rep.Req for its own pool inside Deliver, before the clear
// here.
func mdsDeliver(a, b any) {
	m := a.(*MDS)
	rep := b.(*msg.Reply)
	m.cluster.Deliver(rep)
	rep.Req = nil
	rep.Hints = rep.Hints[:0]
	m.replyPool.Put(rep)
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
			Replicated: m.tc.Replicated(a),
		})
	}
	if target.Parent() != nil {
		hs = append(hs, msg.Hint{
			Ino:        target.ID,
			Authority:  m.strat.Authority(target),
			Replicated: m.tc.Replicated(target),
		})
	}
	return hs
}

func (m *MDS) noteMiss() {
	m.Stats.CacheMissLoads++
	m.missRate.Add(m.eng.Now(), rateHalfLife, 1)
}

// ImportSubtree implements core.Node: install migrated cache state and
// charge the CPU for the transfer, briefly freezing request processing
// (the double-commit hand-off). The entries are by-value snapshots taken
// by the balancer at decision time, so the install below does not read
// the exporter's live cache.
func (m *MDS) ImportSubtree(root *namespace.Inode, entries []core.Migrated) {
	cost := m.svc(sim.Time(len(entries)+1) * importPerRecord)
	m.cpu.Submit(cost, func() {
		// Anchor the subtree: the new authority "must cache the
		// containing directory (prefix) inodes for each of its
		// subtrees" (§4.3).
		m.insert(root, cache.Auth, false)
		// Insert parents before children so path insertion succeeds:
		// depth by depth, each in the exporter's order. Depths are taken
		// here, not at export: a rename in between can change them.
		minD, maxD := math.MaxInt, -1
		for _, e := range entries {
			d := e.Ino.Depth()
			minD, maxD = min(minD, d), max(maxD, d)
		}
		for d := minD; d <= maxD; d++ {
			for _, e := range entries {
				if e.Ino.Depth() != d {
					continue
				}
				m.insert(e.Ino, e.Class, false)
				// A migrated replica now lives here: record this node in
				// the inode's replica set. The exporter's bit stays until
				// its own eviction, matching the bulk-removal rule. (Found
				// by chaos fuzzing: crash-driven re-delegations migrated
				// Replica entries whose replica sets named only the old
				// holders.)
				if e.Class == cache.Replica {
					partition.TagsOf(e.Ino).SetReplica(m.id)
				}
			}
		}
	})
}

// EvictSubtree implements core.Node: the exporter discards state for a
// migrated-away subtree.
func (m *MDS) EvictSubtree(root *namespace.Inode) {
	n := m.cache.CountUnder(root)
	cost := m.svc(sim.Time(n+1) * importPerRecord)
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
	m.pending = make(map[namespace.InodeID][]sim.Call)
	m.pendingDir = make(map[namespace.InodeID][]sim.Call)
	if m.pendingFwd != nil {
		m.pendingFwd = make(map[*msg.Request]fwdRec)
	}
}

// Failed implements core.Node: whether the node is down.
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
		m.insert(ino, cache.Auth, true)
		warmed++
	}
	return warmed
}
