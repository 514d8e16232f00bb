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

// quiesceStep is how far a drain that outlasts QuiesceDrain advances
// between two looks at what is left in flight.
const quiesceStep = 100 * sim.Millisecond

// EndureCheck says whether the config can run on the endurance plane.
// The checkpoint codec covers the open-loop plane and the subtree and
// hash strategies; closed-loop clients, scenario acts, the shared OSD
// pool, the lazy-hybrid ledger and unembedded inodes are out of scope.
func (cfg *Config) EndureCheck() error {
	switch {
	case cfg.OpenLoop == nil:
		return fmt.Errorf("endurance runs need the open-loop traffic plane (a traffic rate)")
	case len(cfg.Acts) != 0:
		return fmt.Errorf("endurance runs do not support scenario acts")
	case cfg.OSDs > 0:
		return fmt.Errorf("endurance runs do not support a shared OSD pool")
	case cfg.Strategy == StratLazyHybrid:
		return fmt.Errorf("endurance runs do not support the %s strategy", StratLazyHybrid)
	case cfg.NoEmbed:
		return fmt.Errorf("endurance runs do not support embed=off")
	}
	return nil
}

// EndureCheck is the config's EndureCheck, for callers that hold the
// cluster.
func (c *Cluster) EndureCheck() error { return c.Cfg.EndureCheck() }

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

// RunTo advances the simulation to absolute virtual time t. Callable
// repeatedly; wall time accrues to the run accounting.
func (c *Cluster) RunTo(t sim.Time) {
	start := time.Now()
	c.Eng.RunUntil(t)
	c.runWall += time.Since(start)
}

// Now returns the global virtual clock.
func (c *Cluster) Now() sim.Time { return c.Eng.Now() }

// Quiesce is QuiesceBy with no room past the drain window.
func (c *Cluster) Quiesce() error { return c.QuiesceBy(c.Eng.Now() + QuiesceDrain) }

// QuiesceBy executes the checkpoint protocol at the current instant:
// pause arrivals and stop the tickers, drain QuiesceDrain of virtual
// time so in-flight chains retire, and past that window (an overloaded
// node's backlog outlasts it) keep draining until nothing is in flight
// anywhere, failing with what is left at bound. Then it garbage-collects
// cached replicas of destroyed inodes on every node (the deterministic
// checkpoint GC — it runs whether or not a snapshot is written, keeping
// checkpointing and restored runs in lockstep). On success the cluster
// is serializable and resumes at the current instant; call Resume
// (after optionally CheckpointTo) to continue.
func (c *Cluster) QuiesceBy(bound sim.Time) error {
	c.Pop.Pause()
	if c.Balancer != nil {
		c.Balancer.Stop()
	}
	for _, n := range c.Nodes {
		n.StopFlusher()
	}
	c.RunTo(c.Eng.Now() + QuiesceDrain)
	for err := c.drained(); err != nil; err = c.drained() {
		if c.Eng.Now() >= bound {
			return fmt.Errorf("cluster: quiesce: not drained by %s: %w", sim.FormatTime(bound), err)
		}
		c.RunTo(min(c.Eng.Now()+quiesceStep, bound))
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

// drained says what is still in flight anywhere, nil when nothing is.
func (c *Cluster) drained() error {
	for _, n := range c.Nodes {
		if err := n.CheckQuiesced(); err != nil {
			return err
		}
	}
	if n := c.Fab.InFlight(); n != 0 {
		return fmt.Errorf("%d messages in flight", n)
	}
	if n := c.Fab.LiveEnvelopes(); n != 0 {
		return fmt.Errorf("%d live envelopes", n)
	}
	if n := c.Requests().Outstanding(); n != 0 {
		return fmt.Errorf("%d requests outstanding", n)
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
	// allocation instead of append's regrowth from empty. The first has
	// no last one: a counting pass measures it, which costs one more
	// walk and saves the copies (several times its size) and the peak
	// of old and new buffers that growth from empty would make.
	if c.lastSnapLen == 0 {
		n := snap.NewCounter()
		c.snap(snap.Encoder(n))
		c.lastSnapLen = n.Len()
		w.Grow(c.lastSnapLen + 8)
	} else {
		w.Grow(c.lastSnapLen + c.lastSnapLen/8 + 8)
	}
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
		if sc.Has(c.Table != nil, "cluster: subtree table") {
			c.Table.Snap(sc, tree)
		}
		partition.SnapTags(sc, tree, len(c.Nodes), c.Traffic.Forwards(), c.writers)
	})

	sc.Section("core", func(sc *snap.Codec) {
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
