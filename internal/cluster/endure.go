package cluster

import (
	"fmt"
	"time"

	"dynmds/internal/namespace"
	"dynmds/internal/net"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/snap"
)

// Endurance orchestration: segmented execution with checkpoints.
//
// A run is cut into segments by checkpoint instants T_1 < T_2 < ... At
// each T_k the cluster executes the quiesce protocol — pause arrivals,
// stop the perpetual tickers, drain in-flight work, verify quiescence,
// garbage-collect cached replicas of destroyed inodes — and then
// either serializes itself (CheckpointTo) or simply resumes. Crucially
// the protocol runs IDENTICALLY whether or not a snapshot is written:
// an uninterrupted run with checkpoint cadence and a run restored from
// any of its snapshots execute the same event sequence, so their final
// digests match bit for bit.

// QuiesceDrain is the drain window after pausing arrivals: long enough
// for every bounded message chain to retire (the worst — a retried,
// forwarded request with a disk fetch — is well under a second; the
// full retry ladder is ~1.2s with fault-mode defaults).
const QuiesceDrain = 2 * sim.Second

// EndureCheck verifies the configuration is endurance-capable. The
// checkpoint codec covers the open-loop plane and the subtree/hash
// strategies; closed-loop clients, scenario acts, the shared OSD pool
// and the lazy-hybrid ledger are out of scope and fail loudly here.
func (c *Cluster) EndureCheck() error {
	if c.Pop == nil {
		return fmt.Errorf("cluster: endurance runs need the open-loop traffic plane")
	}
	if len(c.Cfg.Acts) != 0 {
		return fmt.Errorf("cluster: endurance runs do not support scenario acts")
	}
	if c.Pool != nil {
		return fmt.Errorf("cluster: endurance runs do not support a shared OSD pool")
	}
	if _, ok := c.Strategy.(*partition.LazyHybrid); ok {
		return fmt.Errorf("cluster: endurance runs do not support the lazyhybrid strategy")
	}
	if c.Cfg.MakeStrategy != nil {
		return fmt.Errorf("cluster: endurance runs do not support custom strategies")
	}
	return nil
}

// subtreeTable returns the strategy's delegation table, nil for hash
// strategies. (c.table is only populated for sharded runs.)
func (c *Cluster) subtreeTable() *partition.SubtreeTable {
	if c.Dyn != nil {
		return c.Dyn.Table
	}
	if s, ok := c.Strategy.(*partition.StaticSubtree); ok {
		return s.Table
	}
	return nil
}

// StartEndure arms the cluster — population or closed-loop clients,
// balancer, flushers, warmup snapshot, fault schedule — and returns
// without executing: Run's first step, and the endurance runner's, which
// then advances time in segments with RunTo, quiescing at each
// checkpoint.
func (c *Cluster) StartEndure() {
	if c.Pop != nil {
		c.Pop.Start()
	}
	stagger := sim.Time(0)
	for _, cl := range c.Clients {
		cl.Start(stagger)
		stagger += 17 * sim.Microsecond // de-synchronize the herd
	}
	if c.Balancer != nil {
		c.Balancer.Start()
	}
	for _, n := range c.Nodes {
		n.StartFlusher()
	}
	if c.Cfg.Warmup > 0 && c.Cfg.Warmup < c.Cfg.Duration {
		c.Eng.At(c.Cfg.Warmup, c.snapshotWarmup)
	}
	c.scheduleFaults(-1)
}

// StartEndureRestored arms a freshly built cluster for a restored
// continuation from snapshot time t: only schedule entries strictly in
// the future are posted, in the same relative order StartEndure would
// post them (warmup first, then crashes, recoveries, slow windows), so
// equal-timestamp dispatch order matches the uninterrupted run.
// Arrivals, balancer rounds and flushers are NOT armed here — Resume
// restarts them after the serialized state is applied, exactly as it
// does after an in-place checkpoint.
func (c *Cluster) StartEndureRestored(t sim.Time) {
	if c.Cfg.Warmup > t && c.Cfg.Warmup < c.Cfg.Duration {
		c.Eng.At(c.Cfg.Warmup, c.snapshotWarmup)
	}
	c.scheduleFaults(t)
}

// RunTo advances the simulation to absolute virtual time t (through the
// shard group when sharded). Callable repeatedly; wall time accrues to
// the run accounting.
func (c *Cluster) RunTo(t sim.Time) {
	start := time.Now()
	if c.group != nil {
		c.group.Run(t)
	} else {
		c.Eng.RunUntil(t)
	}
	c.runWall += time.Since(start)
}

// Now returns the global virtual clock.
func (c *Cluster) Now() sim.Time { return c.Eng.Now() }

// Quiesce executes the checkpoint protocol at the current instant:
// pause arrivals and stop the tickers, drain QuiesceDrain of virtual
// time so in-flight chains retire, verify that nothing is left in
// flight anywhere, then garbage-collect cached replicas of destroyed
// inodes on every node (the deterministic checkpoint GC — it runs
// whether or not a snapshot is written, keeping checkpointing and
// restored runs in lockstep). On success the cluster is serializable;
// call Resume (after optionally CheckpointTo) to continue.
func (c *Cluster) Quiesce() error {
	c.Pop.Pause()
	if c.Balancer != nil {
		c.Balancer.Stop()
	}
	for _, n := range c.Nodes {
		n.StopFlusher()
	}
	c.RunTo(c.Eng.Now() + QuiesceDrain)
	if n := c.Pop.RetryOutstanding(); n != 0 {
		return fmt.Errorf("cluster: quiesce with %d boxed retries outstanding", n)
	}
	for _, n := range c.Nodes {
		if err := n.CheckQuiesced(); err != nil {
			return fmt.Errorf("cluster: quiesce: %w", err)
		}
	}
	if n := c.Fab.InFlight(); n != 0 {
		return fmt.Errorf("cluster: quiesce with %d messages in flight", n)
	}
	if n := c.Fab.LiveEnvelopes(); n != 0 {
		return fmt.Errorf("cluster: quiesce with %d live envelopes", n)
	}
	if n := c.Fab.PendingMail(); n != 0 {
		return fmt.Errorf("cluster: quiesce with %d queued cross-shard deliveries", n)
	}
	// Dead means "no longer resolves": a tombstoned base inode, or one
	// the run created and later unlinked. Restore resolves every
	// serialized entry by ID, so nothing else may reach a checkpoint.
	tree := c.Snap.Tree
	dead := func(id namespace.InodeID) bool {
		_, ok := tree.ByID(id)
		return !ok
	}
	for _, n := range c.Nodes {
		n.Cache().DropDestroyed(dead)
	}
	return nil
}

// Resume restarts the tickers and arrivals after a quiesce, in the same
// order in both the checkpointing and the restored run (event sequence
// numbers — and therefore equal-timestamp dispatch order — depend on
// posting order).
func (c *Cluster) Resume() {
	if c.Balancer != nil {
		c.Balancer.Start()
	}
	for _, n := range c.Nodes {
		n.StartFlusher()
	}
	c.Pop.Resume()
}

// ---- serialization ----

// CheckpointTo serializes the full cluster state. Call only after a
// successful Quiesce; the per-subsystem walks panic on any trace of
// in-flight work.
func (c *Cluster) CheckpointTo(w *snap.Writer) {
	// A run's checkpoints grow slowly: room for the last one's length
	// and an eighth, plus the writer's trailer, makes this one a single
	// allocation instead of append's doublings from empty.
	w.Grow(c.lastSnapLen + c.lastSnapLen/8 + 8)
	start := w.Len()
	enc := snap.Encoder(w)
	if c.snap(enc); enc.Err() != nil {
		panic("cluster: checkpoint: " + enc.Err().Error())
	}
	c.lastSnapLen = w.Len() - start
}

// RestoreCheckpoint applies a checkpoint onto a freshly built cluster
// with the same configuration. The engines must not have advanced; call
// StartEndureRestored and advance to the snapshot time afterwards, then
// Resume.
func (c *Cluster) RestoreCheckpoint(r *snap.Reader) error {
	dec := snap.Decoder(r)
	c.snap(dec)
	c.lastSnapLen = r.Len()
	return dec.Err()
}

// snap is the cluster's state, section by section, in file order. Every
// optional plane is announced with Has, so a snapshot and a restoring
// run that disagree about the configuration fail on the first byte of
// the difference.
func (c *Cluster) snap(sc *snap.Codec) {
	tree := c.Snap.Tree
	sc.Section("tree", tree.Snap)

	sc.Section("partition", func(sc *snap.Codec) {
		table := c.subtreeTable()
		if sc.Has(table != nil, "cluster: subtree table") {
			table.Snap(sc, tree)
		}
		partition.SnapTags(sc, tree, len(c.Nodes))
		if sc.Reading() && c.numShards > 1 {
			// Inodes created after the pristine snapshot have no tag blocks
			// yet; materialize them before windows run concurrently, exactly
			// as New does for the pristine tree.
			tree.Walk(func(n *namespace.Inode) bool {
				_ = partition.TagsOf(n)
				return true
			})
			// Memos came from the snapshot verbatim (they are behavioral
			// state — see partition's codec); only resync the barrier's
			// epoch watermark so it does not re-Memoize over them.
			if table != nil {
				c.tableEpoch = table.Epoch()
			}
		}
	})

	sc.Section("core", func(sc *snap.Codec) {
		if sc.Has(c.Dyn != nil, "cluster: dynamic-strategy state") {
			c.Dyn.Snap(sc)
		}
		if sc.Has(c.Traffic != nil, "cluster: traffic-control state") {
			c.Traffic.Snap(sc)
		}
		if sc.Has(c.Balancer != nil, "cluster: balancer state") {
			c.Balancer.Snap(sc, tree)
		}
	})

	sc.Section("nodes", func(sc *snap.Codec) {
		sc.Same(len(c.Nodes), "cluster: nodes")
		for _, n := range c.Nodes {
			n.Snap(sc)
		}
	})

	sc.Section("lease", func(sc *snap.Codec) {
		if sc.Has(c.Lease != nil, "cluster: lease state") {
			c.Lease.Snap(sc)
		}
	})

	sc.Section("fault", c.snapFaults)
	sc.Section("fabric", c.Fab.Snap)
	if sc.Reading() && c.plane != nil && sc.Err() == nil {
		// The draw count was read with the fault section; the counters
		// that bound it have only now arrived.
		var sent uint64
		for class := 0; class < net.NumClasses; class++ {
			sent += c.Fab.Class(net.Class(class)).Sent
		}
		if err := c.plane.Replay(sent); err != nil {
			sc.Failf("cluster: %w", err)
		}
	}

	sc.Section("pop", func(sc *snap.Codec) { c.Pop.Snap(sc, tree) })

	sc.Section("series", func(sc *snap.Codec) {
		sc.Same(len(c.RepliesPerNode), "cluster: reply series")
		for _, s := range c.RepliesPerNode {
			s.Snap(sc)
		}
		c.Forwards.Snap(sc)
		c.Arrivals.Snap(sc)
		c.LatH.Snap(sc)
		lanes := -1
		if c.numShards > 1 {
			lanes = c.numShards
		}
		sc.Same(lanes, "cluster: metric lanes")
		for i := 0; i < lanes; i++ {
			c.arrivalLanes[i].Snap(sc)
			c.forwardLanes[i].Snap(sc)
			c.latHistLanes[i].Snap(sc)
		}
		snap.U(sc, &c.warmServed)
		snap.U(sc, &c.warmForwards)
		snap.U(sc, &c.warmArrivals)
		snap.U(sc, &c.warmHits)
		snap.U(sc, &c.warmMisses)
		sc.Bool(&c.warmTaken)
	})
}

// snapFaults walks the fault plane's and the failure detector's state.
func (c *Cluster) snapFaults(sc *snap.Codec) {
	if !sc.Has(c.plane != nil, "cluster: fault state") {
		return
	}
	c.plane.Snap(sc)
	for i := range c.strikes {
		snap.I(sc, &c.strikes[i])
	}
	for i := range c.down {
		sc.Bool(&c.down[i])
	}
	snap.U(sc, &c.suspicions)
	for _, evs := range [...]*[]FaultEvent{&c.Failures, &c.Recoveries, &c.Downs} {
		snap.Slice(sc, evs)
		for i := range *evs {
			ev := &(*evs)[i]
			snap.I(sc, &ev.At)
			snap.I(sc, &ev.Node)
			snap.I(sc, &ev.Warmed)
		}
	}
	c.CompletedOps.Snap(sc)
	if c.lostRoots == nil {
		c.lostRoots = make(map[int][]*namespace.Inode)
	}
	snap.Map(sc, c.lostRoots, func(victim *int, roots *[]*namespace.Inode) {
		snap.Index(sc, victim, len(c.Nodes), "cluster: lost-roots victim")
		// Slice order is preserved verbatim: fail-back re-delegates in
		// this order on recovery.
		snap.Slice(sc, roots)
		for i := range *roots {
			c.Snap.Tree.SnapRef(sc, &(*roots)[i], "cluster: lost root")
		}
	})
}
