package cluster

import (
	"fmt"
	"sort"
	"time"

	"dynmds/internal/metrics"
	"dynmds/internal/namespace"
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

// StartEndure arms the cluster exactly as Run does — population,
// balancer, flushers, warmup snapshot, fault schedule — but returns
// without executing. The endurance runner then advances time in
// segments with RunTo, quiescing at each checkpoint.
func (c *Cluster) StartEndure() {
	if c.Pop != nil {
		c.Pop.Start()
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
	c.scheduleFaults()
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
	if c.sched == nil {
		return
	}
	for _, ev := range c.sched.Crashes {
		if ev.At <= t {
			continue
		}
		ev := ev
		c.Eng.At(ev.At, func() {
			c.Nodes[ev.Node].Fail()
			c.Failures = append(c.Failures, FaultEvent{At: ev.At, Node: ev.Node})
		})
	}
	for _, ev := range c.sched.Recovers {
		if ev.At <= t {
			continue
		}
		ev := ev
		c.Eng.At(ev.At, func() {
			c.RecoverNode(ev.Node) //nolint:errcheck // node index validated at parse
		})
	}
	for _, w := range c.sched.Slows {
		w := w
		if w.From > t {
			c.Eng.At(w.From, func() { c.Nodes[w.Node].SetSlow(w.Factor) })
		}
		if w.To > t {
			c.Eng.At(w.To, func() { c.Nodes[w.Node].SetSlow(1) })
		}
	}
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

func writeSeries(w *snap.Writer, s *metrics.Series) {
	sums, counts := s.State()
	w.Int(len(sums))
	for i := range sums {
		w.F64(sums[i])
		w.I64(counts[i])
	}
}

func readSeries(r *snap.Reader, s *metrics.Series) {
	n := r.Int()
	sums := make([]float64, n)
	counts := make([]int64, n)
	for i := 0; i < n; i++ {
		sums[i] = r.F64()
		counts[i] = r.I64()
	}
	s.SetState(sums, counts)
}

func writeHist(w *snap.Writer, h *metrics.Histogram) {
	counts, total := h.State()
	w.Int(len(counts))
	for _, c := range counts {
		w.U64(c)
	}
	w.U64(total)
}

func readHist(r *snap.Reader, h *metrics.Histogram) error {
	n := r.Int()
	counts := make([]uint64, n)
	for i := range counts {
		counts[i] = r.U64()
	}
	total := r.U64()
	have, _ := h.State()
	if n != len(have) {
		return fmt.Errorf("cluster: snapshot histogram has %d buckets, built %d", n, len(have))
	}
	h.SetState(counts, total)
	return nil
}

func writeLatHist(w *snap.Writer, h *metrics.LatHist) {
	nz := 0
	h.State(func(int, uint64) { nz++ })
	w.Int(nz)
	h.State(func(idx int, count uint64) {
		w.Int(idx)
		w.U64(count)
	})
}

func readLatHist(r *snap.Reader, h *metrics.LatHist) {
	nz := r.Int()
	for i := 0; i < nz; i++ {
		idx := r.Int()
		h.SetBucket(idx, r.U64())
	}
}

func writeFaultEvents(w *snap.Writer, evs []FaultEvent) {
	w.Int(len(evs))
	for _, ev := range evs {
		w.I64(int64(ev.At))
		w.Int(ev.Node)
		w.Int(ev.Warmed)
	}
}

func readFaultEvents(r *snap.Reader) []FaultEvent {
	n := r.Int()
	if n == 0 {
		return nil
	}
	evs := make([]FaultEvent, n)
	for i := range evs {
		evs[i] = FaultEvent{At: sim.Time(r.I64()), Node: r.Int(), Warmed: r.Int()}
	}
	return evs
}

// CheckpointTo serializes the full cluster state. Call only after a
// successful Quiesce; the per-subsystem codecs panic on any trace of
// in-flight work.
func (c *Cluster) CheckpointTo(w *snap.Writer) {
	if c.lanesMerged {
		panic("cluster: checkpoint after lanes were merged (Collect already ran)")
	}
	w.Begin("tree")
	c.Snap.Tree.SnapshotTo(w)
	w.End()

	w.Begin("partition")
	if t := c.subtreeTable(); t != nil {
		w.Bool(true)
		t.SnapshotTable(w)
	} else {
		w.Bool(false)
	}
	partition.SnapshotTags(w, c.Snap.Tree)
	w.End()

	w.Begin("core")
	if c.Dyn != nil {
		w.Bool(true)
		c.Dyn.SnapshotTo(w)
	} else {
		w.Bool(false)
	}
	if c.Traffic != nil {
		w.Bool(true)
		c.Traffic.SnapshotTo(w)
	} else {
		w.Bool(false)
	}
	if c.Balancer != nil {
		w.Bool(true)
		c.Balancer.SnapshotTo(w)
	} else {
		w.Bool(false)
	}
	w.End()

	w.Begin("nodes")
	w.Int(len(c.Nodes))
	for _, n := range c.Nodes {
		n.SnapshotTo(w)
	}
	w.End()

	w.Begin("lease")
	if c.Lease != nil {
		w.Bool(true)
		c.Lease.SnapshotTo(w)
	} else {
		w.Bool(false)
	}
	w.End()

	w.Begin("fault")
	if c.plane != nil {
		w.Bool(true)
		w.U64(c.plane.Draws())
		for _, s := range c.strikes {
			w.Int(s)
		}
		for _, d := range c.down {
			w.Bool(d)
		}
		w.U64(c.suspicions)
		writeFaultEvents(w, c.Failures)
		writeFaultEvents(w, c.Recoveries)
		writeFaultEvents(w, c.Downs)
		writeSeries(w, c.CompletedOps)
		victims := make([]int, 0, len(c.lostRoots))
		for v := range c.lostRoots {
			victims = append(victims, v)
		}
		sort.Ints(victims)
		w.Int(len(victims))
		for _, v := range victims {
			roots := c.lostRoots[v]
			w.Int(v)
			w.Int(len(roots))
			// Slice order is preserved verbatim: fail-back re-delegates
			// in this order on recovery.
			for _, root := range roots {
				w.U64(uint64(root.ID))
			}
		}
	} else {
		w.Bool(false)
	}
	w.End()

	w.Begin("fabric")
	c.Fab.SnapshotTo(w)
	w.End()

	w.Begin("pop")
	c.Pop.SnapshotTo(w)
	w.End()

	w.Begin("series")
	w.Int(len(c.RepliesPerNode))
	for _, s := range c.RepliesPerNode {
		writeSeries(w, s)
	}
	writeSeries(w, c.Forwards)
	writeSeries(w, c.Arrivals)
	writeHist(w, c.Latencies)
	writeLatHist(w, c.LatH)
	if c.numShards > 1 {
		w.Int(c.numShards)
		for i := 0; i < c.numShards; i++ {
			writeSeries(w, c.arrivalLanes[i])
			writeSeries(w, c.forwardLanes[i])
			writeHist(w, c.latencyLanes[i])
			writeLatHist(w, c.latHistLanes[i])
		}
	} else {
		w.Int(-1)
	}
	w.U64(c.warmServed)
	w.U64(c.warmForwards)
	w.U64(c.warmArrivals)
	w.U64(c.warmHits)
	w.U64(c.warmMisses)
	w.Bool(c.warmTaken)
	w.End()
}

func (c *Cluster) expectSection(r *snap.Reader, want string) error {
	name, err := r.Section()
	if err != nil {
		return fmt.Errorf("cluster: reading snapshot section %q: %w", want, err)
	}
	if name != want {
		return fmt.Errorf("cluster: snapshot section %q where %q expected", name, want)
	}
	return nil
}

// RestoreCheckpoint applies a checkpoint onto a freshly built cluster
// with the same configuration. The engines must not have advanced; call
// StartEndureRestored and advance to the snapshot time afterwards, then
// Resume.
func (c *Cluster) RestoreCheckpoint(r *snap.Reader) error {
	if err := c.expectSection(r, "tree"); err != nil {
		return err
	}
	tree := c.Snap.Tree
	if err := tree.RestoreFrom(r); err != nil {
		return err
	}

	if err := c.expectSection(r, "partition"); err != nil {
		return err
	}
	table := c.subtreeTable()
	if r.Bool() {
		if table == nil {
			return fmt.Errorf("cluster: snapshot has a subtree table, strategy %q does not", c.Cfg.Strategy)
		}
		if err := table.RestoreTable(r, tree); err != nil {
			return err
		}
	} else if table != nil {
		return fmt.Errorf("cluster: snapshot has no subtree table, strategy %q needs one", c.Cfg.Strategy)
	}
	if c.numShards > 1 {
		// Inodes created after the pristine snapshot have no tag blocks
		// yet; materialize them before windows run concurrently, exactly
		// as New does for the pristine tree.
		tree.Walk(func(n *namespace.Inode) bool {
			_ = partition.TagsOf(n)
			return true
		})
	}
	if err := partition.RestoreTags(r, tree, c.Cfg.MDS.PopHalfLife, c.Cfg.MDS.PopHalfLife); err != nil {
		return err
	}
	if table != nil && c.numShards > 1 {
		// Memos came from the snapshot verbatim (they are behavioral
		// state — see partition's codec); only resync the barrier's
		// epoch watermark so it does not re-Memoize over them.
		c.tableEpoch = table.Epoch()
	}

	if err := c.expectSection(r, "core"); err != nil {
		return err
	}
	if r.Bool() {
		if c.Dyn == nil {
			return fmt.Errorf("cluster: snapshot has dynamic-strategy state, cluster does not")
		}
		c.Dyn.RestoreFrom(r)
	}
	if r.Bool() {
		if c.Traffic == nil {
			return fmt.Errorf("cluster: snapshot has traffic-control state, cluster does not")
		}
		c.Traffic.RestoreFrom(r)
	}
	if r.Bool() {
		if c.Balancer == nil {
			return fmt.Errorf("cluster: snapshot has balancer state, cluster does not")
		}
		if err := c.Balancer.RestoreFrom(r, tree); err != nil {
			return err
		}
	}

	if err := c.expectSection(r, "nodes"); err != nil {
		return err
	}
	if n := r.Int(); n != len(c.Nodes) {
		return fmt.Errorf("cluster: snapshot has %d nodes, cluster has %d", n, len(c.Nodes))
	}
	resolve := func(id namespace.InodeID) (*namespace.Inode, bool) { return tree.ByID(id) }
	for _, n := range c.Nodes {
		if err := n.RestoreFrom(r, resolve); err != nil {
			return err
		}
	}

	if err := c.expectSection(r, "lease"); err != nil {
		return err
	}
	if r.Bool() {
		if c.Lease == nil {
			return fmt.Errorf("cluster: snapshot has lease state, cluster does not")
		}
		if err := c.Lease.RestoreFrom(r); err != nil {
			return err
		}
	}

	if err := c.expectSection(r, "fault"); err != nil {
		return err
	}
	if r.Bool() {
		if c.plane == nil {
			return fmt.Errorf("cluster: snapshot has fault state, cluster has no fault schedule")
		}
		c.plane.ReplayDraws(r.U64())
		for i := range c.strikes {
			c.strikes[i] = r.Int()
		}
		for i := range c.down {
			c.down[i] = r.Bool()
		}
		c.suspicions = r.U64()
		c.Failures = readFaultEvents(r)
		c.Recoveries = readFaultEvents(r)
		c.Downs = readFaultEvents(r)
		readSeries(r, c.CompletedOps)
		nv := r.Int()
		for i := 0; i < nv; i++ {
			v := r.Int()
			nr := r.Int()
			roots := make([]*namespace.Inode, nr)
			for j := range roots {
				id := namespace.InodeID(r.U64())
				root, ok := tree.ByID(id)
				if !ok {
					return fmt.Errorf("cluster: snapshot lost-root %d unresolvable", id)
				}
				roots[j] = root
			}
			c.lostRoots[v] = roots
		}
	} else if c.plane != nil {
		return fmt.Errorf("cluster: snapshot has no fault state, cluster has a fault schedule")
	}

	if err := c.expectSection(r, "fabric"); err != nil {
		return err
	}
	if err := c.Fab.RestoreFrom(r); err != nil {
		return err
	}

	if err := c.expectSection(r, "pop"); err != nil {
		return err
	}
	if err := c.Pop.RestoreFrom(r, resolve); err != nil {
		return err
	}

	if err := c.expectSection(r, "series"); err != nil {
		return err
	}
	if n := r.Int(); n != len(c.RepliesPerNode) {
		return fmt.Errorf("cluster: snapshot has %d reply series, cluster has %d", n, len(c.RepliesPerNode))
	}
	for _, s := range c.RepliesPerNode {
		readSeries(r, s)
	}
	readSeries(r, c.Forwards)
	readSeries(r, c.Arrivals)
	if err := readHist(r, c.Latencies); err != nil {
		return err
	}
	readLatHist(r, c.LatH)
	k := r.Int()
	if k >= 0 {
		if k != c.numShards {
			return fmt.Errorf("cluster: snapshot has %d metric lanes, cluster has %d shards", k, c.numShards)
		}
		for i := 0; i < k; i++ {
			readSeries(r, c.arrivalLanes[i])
			readSeries(r, c.forwardLanes[i])
			if err := readHist(r, c.latencyLanes[i]); err != nil {
				return err
			}
			readLatHist(r, c.latHistLanes[i])
		}
	} else if c.numShards > 1 {
		return fmt.Errorf("cluster: snapshot is serial, cluster runs %d shards", c.numShards)
	}
	c.warmServed = r.U64()
	c.warmForwards = r.U64()
	c.warmArrivals = r.U64()
	c.warmHits = r.U64()
	c.warmMisses = r.U64()
	c.warmTaken = r.Bool()
	return nil
}
