// Package cluster assembles a complete simulation: the synthetic file
// system, the MDS nodes with a chosen partitioning strategy, the client
// population with its workload, the load balancer and traffic control
// for the dynamic strategy, and the measurement plumbing that the
// experiment harness reads.
package cluster

import (
	"fmt"
	"time"

	"dynmds/internal/client"
	"dynmds/internal/core"
	"dynmds/internal/fault"
	"dynmds/internal/fsgen"
	"dynmds/internal/lease"
	"dynmds/internal/mds"
	"dynmds/internal/metrics"
	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/net"
	"dynmds/internal/osd"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// Strategy names accepted by Config.Strategy.
const (
	StratDynamic    = "DynamicSubtree"
	StratStatic     = "StaticSubtree"
	StratDirHash    = "DirHash"
	StratFileHash   = "FileHash"
	StratLazyHybrid = "LazyHybrid"
)

// Strategies lists all strategy names in the paper's presentation order.
var Strategies = []string{StratStatic, StratDynamic, StratDirHash, StratLazyHybrid, StratFileHash}

// WorkloadKind selects the client workload scenario.
type WorkloadKind string

// Workload kinds.
const (
	WorkGeneral    WorkloadKind = "general"
	WorkScientific WorkloadKind = "scientific"
	WorkShift      WorkloadKind = "shift"
	WorkFlashCrowd WorkloadKind = "flashcrowd"
)

// WorkloadConfig selects and parameterises the scenario.
type WorkloadConfig struct {
	Kind    WorkloadKind
	General workload.GeneralConfig

	// Shift scenario (Figures 5/6).
	ShiftTime     sim.Time
	ShiftFraction float64 // fraction of clients that migrate

	// Flash crowd scenario (Figure 7).
	FlashTime     sim.Time
	FlashDuration sim.Time

	// Scientific scenario.
	PhaseLength   sim.Time
	BurstFraction float64
}

// Config describes one complete simulation run.
type Config struct {
	Seed           int64
	NumMDS         int
	ClientsPerMDS  int
	Strategy       string
	PartitionDepth int

	FS       fsgen.Config
	MDS      mds.Config
	Client   client.Config
	Workload WorkloadConfig

	// NetModel selects the message-fabric latency model: net.ModelFixed
	// (the default; reproduces the constant NetLatency/FwdLatency hops
	// exactly) or net.ModelQueued (adds per-link serialization delay
	// from message size and link bandwidth).
	NetModel string
	// LinkBandwidth sets the queued model's per-link capacity in bytes
	// per simulated second; zero means net.DefaultBandwidth.
	LinkBandwidth float64

	// Faults is a fault-injection schedule in the internal/fault DSL,
	// e.g. "crash@30s:mds3,drop@0.01:link2-5,partition@60s-90s:{0-3|4-7}".
	// Empty (or all-whitespace) disables fault injection entirely; runs
	// are then bit-identical to a build without this field. When the
	// schedule is non-empty, fault-mode defaults are applied to any
	// zero-valued resilience knobs (client retry timeout and cap, MDS
	// fetch/forward timeouts, suspicion threshold) so that crashes and
	// drops are survivable out of the box.
	Faults string
	// SuspicionThreshold is the number of missed-timeout strikes against
	// a peer before the cluster marks it down; the dynamic strategy then
	// reassigns the suspect's subtrees to the least-loaded survivors.
	// Zero means 3 when faults are enabled.
	SuspicionThreshold int

	// Snapshot, when non-nil, is a pre-generated frozen namespace shared
	// with other runs; nil, New generates one from FS and Seed. Either
	// way the run thaws a private copy-on-write overlay over it, and
	// FS/Seed still key the workload RNG streams, so the results are
	// bit-identical.
	Snapshot *fsgen.FrozenSnapshot

	// Balancer enables dynamic load balancing (DynamicSubtree only).
	Balancer *core.BalancerConfig
	// Traffic enables traffic control (DynamicSubtree only); the
	// template's thresholds are copied into a fresh controller.
	Traffic *core.TrafficControl
	// HashDirThreshold enables dynamic directory hashing (§4.3).
	HashDirThreshold int
	// OSDs, when > 0, backs all MDS storage with one shared object
	// pool of that many devices (§2.1.3) instead of node-local disks;
	// OSDReplicas sets the per-object replica count (default 2).
	OSDs        int
	OSDReplicas int
	// MakeStrategy, when non-nil, overrides Strategy with a
	// caller-built partitioning strategy constructed over the run's
	// own tree (the embedded-inode ablation and tests).
	MakeStrategy func(n int, tree *namespace.Tree) partition.Strategy

	// OpenLoop, when non-nil, replaces the closed-loop per-object client
	// population with the open-loop flyweight traffic plane: dense
	// per-client records, tenants with Zipf-distributed sizes, Poisson
	// arrivals (with diurnal/burst modulation) scheduled through a
	// hierarchical timer wheel per shard. OpenLoop.Clients defaults to
	// NumMDS·ClientsPerMDS. Incompatible with non-general workload kinds
	// (the open loop has no scenario hooks). A fault schedule composes:
	// it arms the population's boxed retry-escalation cache, so drops and
	// crashes are survivable.
	OpenLoop *client.PopulationConfig

	// Lease configures the hotspot-mitigation plane (internal/lease):
	// coherent client read leases (Lease.Enabled; requires OpenLoop) and
	// hot-directory replica fan-out (Lease.Fanout). The zero value
	// disables both and leaves runs bit-identical to a build without it.
	Lease lease.Config

	// Acts, when non-empty, scripts the open-loop run as a timeline of
	// scenario acts — timed rate/mix/skew/hotspot retargets of the
	// traffic plane (see ActConfig). Requires OpenLoop; validated and
	// resolved against the namespace in New, before any simulation.
	Acts []ActConfig

	// Shards, when > 1, runs the simulation on the conservative parallel
	// (Chandy–Misra style) sharded executor: MDS endpoints and clients
	// are partitioned across that many per-shard event heaps advancing
	// in lockstep lookahead windows derived from the fabric's minimum
	// link latency. Results are bit-reproducible for a fixed shard
	// count; 0 or 1 uses the serial engine. Incompatible with a shared
	// OSD pool. When a fault schedule is active the same windowed
	// execution runs single-threaded (the fault plane's RNG and the
	// suspicion protocol's mid-window reassignment are shared state),
	// still deterministic.
	Shards int

	Duration     sim.Time
	Warmup       sim.Time
	SeriesBucket sim.Time
}

// Default returns a small, fast baseline configuration: callers override
// strategy, sizes and workload.
func Default() Config {
	fs := fsgen.Default()
	return Config{
		Seed:           1,
		NumMDS:         4,
		ClientsPerMDS:  50,
		Strategy:       StratDynamic,
		PartitionDepth: 2,
		FS:             fs,
		MDS:            mds.DefaultConfig(2000),
		Client:         client.Config{ThinkMean: 5 * sim.Millisecond, KnownCap: 2048},
		Workload:       WorkloadConfig{Kind: WorkGeneral, General: workload.DefaultGeneralConfig()},
		Balancer:       ptr(core.DefaultBalancerConfig()),
		Traffic:        core.DefaultTrafficControl(),
		Duration:       30 * sim.Second,
		Warmup:         10 * sim.Second,
		SeriesBucket:   sim.Second,
	}
}

func ptr[T any](v T) *T { return &v }

// Cluster is a runnable simulation instance.
type Cluster struct {
	Cfg      Config
	Eng      *sim.Engine
	Snap     *fsgen.Snapshot
	Fab      *net.Fabric
	Strategy partition.Strategy
	Dyn      *core.DynamicSubtree
	Traffic  *core.TrafficControl
	Balancer *core.Balancer
	Nodes    []*mds.MDS
	Clients  []*client.Client
	// Pop is the open-loop traffic plane (nil for closed-loop runs).
	Pop *client.Population
	// Lease is the hotspot-mitigation plane (nil unless Cfg.Lease
	// enables leases and/or fan-out).
	Lease *lease.Plane
	// tenants is the plane's tenant model, kept for act-driven skew
	// retargets (scheduled on the global engine: they mutate shared
	// alias tables, so they must run at barriers when sharded).
	tenants *workload.Tenants

	// Per-node reply series, cluster-wide forward and client-arrival
	// series, replica-serve series (all bucketed by SeriesBucket).
	RepliesPerNode []*metrics.Series
	Forwards       *metrics.Series
	Arrivals       *metrics.Series

	// LatH holds the response time of every reply a client accepted —
	// a duplicate, or a late answer to a retired request, is not a
	// completion — and is behind p50/p99/p999 and the mean (16
	// sub-buckets per octave, microsecond domain). Deliver is its one
	// writer.
	LatH *metrics.LatHist

	// Pool is the shared OSD pool, when configured.
	Pool *osd.Pool

	// Fault-injection state (nil / zero when Cfg.Faults is empty).
	sched   *fault.Schedule
	plane   *fault.Plane
	strikes []int  // missed-timeout strikes per node
	down    []bool // nodes confirmed down by suspicion
	// CompletedOps buckets the same accepted replies per SeriesBucket —
	// the availability series (non-nil only in fault mode).
	CompletedOps *metrics.Series
	// Failures, Recoveries and Downs log injected crashes, recoveries
	// (with warmed-record counts) and suspicion-confirmed downs.
	Failures   []FaultEvent
	Recoveries []FaultEvent
	Downs      []FaultEvent
	suspicions uint64
	// lostRoots remembers, per failed node, the subtree roots failover
	// reassigned away, so recovery can fail them back to the rejoining
	// node — whose log-warmed cache covers exactly that working set.
	lostRoots map[int][]*namespace.Inode

	// Warmup snapshots for windowed aggregates.
	warmServed, warmForwards, warmArrivals uint64
	warmHits, warmMisses                   uint64
	warmTaken                              bool

	// Sharded (conservative parallel) execution state. group is nil when
	// the effective shard count is <= 1 and everything above runs on the
	// serial engine exactly as before.
	group        *sim.ShardGroup
	shardEngines []*sim.Engine
	shardOf      []int // MDS id -> shard
	numShards    int   // effective count (0 = serial)
	// table is the strategy's subtree table when it has one; frozen
	// during windows so Authority walks are read-only, re-memoized at
	// barriers whenever the assignment epoch moves.
	table      *partition.SubtreeTable
	tableEpoch uint64
	// Per-shard metric lanes: each is written by exactly one shard
	// during windows and summed into the public aggregates (in shard
	// order) when results are collected. Arrival/latency lanes are
	// indexed by the client's shard, forward lanes by the forwarding
	// node's shard. replyReturns parks replies consumed on a client
	// shard until the barrier hands them back to the serving node's
	// pool.
	arrivalLanes []*metrics.Series
	latHistLanes []*metrics.LatHist
	forwardLanes []*metrics.Series
	replyReturns [][]*msg.Reply

	// lastSnapLen is the length of the checkpoint this cluster last
	// wrote or was restored from: CheckpointTo's buffer-size hint, not
	// part of any checkpoint.
	lastSnapLen int

	// setupWall is the wall-clock cost of New (generation or thaw plus
	// cluster assembly).
	setupWall time.Duration
	runWall   time.Duration
}

// New builds a cluster from the configuration.
func New(cfg Config) (*Cluster, error) {
	if cfg.NumMDS < 1 {
		return nil, fmt.Errorf("cluster: NumMDS must be >= 1")
	}
	if cfg.SeriesBucket <= 0 {
		cfg.SeriesBucket = sim.Second
	}
	sched, err := fault.ParseSchedule(cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("cluster: bad fault schedule: %w", err)
	}
	if err := sched.Validate(cfg.NumMDS); err != nil {
		return nil, fmt.Errorf("cluster: bad fault schedule: %w", err)
	}
	if !sched.Empty() {
		applyFaultDefaults(&cfg)
	}
	if err := cfg.Lease.Normalize(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Lease.Enabled && cfg.OpenLoop == nil {
		return nil, fmt.Errorf("cluster: client leases require the open-loop traffic plane")
	}
	setupStart := time.Now()
	frozen := cfg.Snapshot
	if frozen == nil {
		fs := cfg.FS
		fs.Seed = cfg.Seed
		if frozen, err = fsgen.GenerateFrozen(fs); err != nil {
			return nil, err
		}
	}
	snap := frozen.Thaw()
	eng := sim.NewEngine()
	model, err := buildNetModel(cfg)
	if err != nil {
		return nil, err
	}
	shards := cfg.Shards
	if shards > cfg.NumMDS {
		shards = cfg.NumMDS
	}
	if shards > 1 {
		if cfg.OSDs > 0 {
			return nil, fmt.Errorf("cluster: sharded execution is incompatible with a shared OSD pool")
		}
		if model.Lookahead() <= 0 {
			return nil, fmt.Errorf("cluster: sharded execution needs a positive minimum link latency for lookahead")
		}
	} else {
		shards = 0
	}
	c := &Cluster{
		Cfg:       cfg,
		Eng:       eng,
		Snap:      snap,
		Fab:       net.NewFabric(eng, cfg.NumMDS, model),
		Forwards:  metrics.NewSeries(cfg.SeriesBucket),
		Arrivals:  metrics.NewSeries(cfg.SeriesBucket),
		LatH:      metrics.NewLatHist(),
		numShards: shards,
	}
	if k := cfg.Workload.Kind; cfg.OpenLoop != nil && k != "" && k != WorkGeneral {
		return nil, fmt.Errorf("cluster: open-loop traffic plane supports only the general workload, not %q", k)
	}
	if shards > 1 {
		c.shardEngines = make([]*sim.Engine, shards)
		c.arrivalLanes = make([]*metrics.Series, shards)
		c.latHistLanes = make([]*metrics.LatHist, shards)
		c.forwardLanes = make([]*metrics.Series, shards)
		for i := range c.shardEngines {
			c.shardEngines[i] = sim.NewEngine()
			c.arrivalLanes[i] = metrics.NewSeries(cfg.SeriesBucket)
			c.latHistLanes[i] = metrics.NewLatHist()
			c.forwardLanes[i] = metrics.NewSeries(cfg.SeriesBucket)
		}
		c.replyReturns = make([][]*msg.Reply, shards)
		// Contiguous blocks of MDS nodes per shard: authority locality
		// in the subtree partition keeps most hops intra-shard.
		c.shardOf = make([]int, cfg.NumMDS)
		base, rem := cfg.NumMDS/shards, cfg.NumMDS%shards
		node := 0
		for s := 0; s < shards; s++ {
			cnt := base
			if s < rem {
				cnt++
			}
			for j := 0; j < cnt; j++ {
				c.shardOf[node] = s
				node++
			}
		}
		c.Fab.Shard(shards, c.shardOf, c.shardEngines)
	}
	if !sched.Empty() {
		c.sched = sched
		c.plane = fault.NewPlane(cfg.Seed, sched, cfg.NumMDS)
		c.Fab.SetFaultPlane(c.plane)
		c.strikes = make([]int, cfg.NumMDS)
		c.down = make([]bool, cfg.NumMDS)
		c.CompletedOps = metrics.NewSeries(cfg.SeriesBucket)
	}

	// Strategy.
	if cfg.MakeStrategy != nil {
		c.Strategy = cfg.MakeStrategy(cfg.NumMDS, snap.Tree)
	} else if err := c.buildStrategy(cfg, snap); err != nil {
		return nil, err
	}

	// Shared OSD pool, when configured.
	if cfg.OSDs > 0 {
		pcfg := osd.DefaultConfig(cfg.OSDs)
		if cfg.OSDReplicas > 0 {
			pcfg.Replicas = cfg.OSDReplicas
		}
		pool, err := osd.NewPool(eng, pcfg)
		if err != nil {
			return nil, err
		}
		c.Pool = pool
	}

	// Nodes with measurement hooks.
	for i := 0; i < cfg.NumMDS; i++ {
		nodeCfg := cfg.MDS
		if c.Pool != nil {
			nodeCfg.Storage.Pool = c.Pool
			nodeCfg.Storage.PoolOwner = i
		}
		nodeEng := eng
		if c.numShards > 1 {
			nodeEng = c.shardEngines[c.shardOf[i]]
		}
		node := mds.New(i, nodeEng, nodeCfg, c.Strategy, c.Traffic, c)
		series := metrics.NewSeries(cfg.SeriesBucket)
		c.RepliesPerNode = append(c.RepliesPerNode, series)
		node.OnReply = func(id int, req *msg.Request, now sim.Time) {
			c.RepliesPerNode[id].Observe(now, 1)
		}
		node.OnForward = func(id int, req *msg.Request, now sim.Time) {
			if c.numShards > 1 {
				c.forwardLanes[c.shardOf[id]].Observe(now, 1)
				return
			}
			c.Forwards.Observe(now, 1)
		}
		c.Nodes = append(c.Nodes, node)
	}

	// Balancer (dynamic only).
	if c.Dyn != nil && cfg.Balancer != nil {
		nodes := make([]core.Node, len(c.Nodes))
		for i, n := range c.Nodes {
			nodes[i] = n
		}
		c.Balancer = core.NewBalancer(eng, *cfg.Balancer, cfg.MDS.PopHalfLife, c.Dyn, nodes)
	}

	// Clients.
	if err := c.buildClients(); err != nil {
		return nil, err
	}

	// Scenario acts: validated, hotspot paths resolved against the
	// fresh namespace, boundaries scheduled.
	if err := c.setupActs(); err != nil {
		return nil, err
	}

	// Hotspot-mitigation plane: shared registry sized to the namespace
	// (plus mid-run growth headroom), lease slab sized to the population.
	if cfg.Lease.Enabled || cfg.Lease.Fanout {
		nclients := 0
		if c.Pop != nil {
			nclients = c.Pop.Clients()
		}
		c.Lease = lease.NewPlane(cfg.Lease, nclients, snap.Tree.MaxID())
		for _, n := range c.Nodes {
			n.AttachLeasePlane(c.Lease)
		}
		if c.Pop != nil && cfg.Lease.Enabled {
			c.Pop.AttachLeasePlane(c.Lease)
		}
	}

	// A fault schedule over the open loop arms the population's boxed
	// retry cache with the same (defaulted) knobs closed-loop clients use.
	if c.Pop != nil && !sched.Empty() {
		c.Pop.EnableRetries(cfg.Client.RetryTimeout, cfg.Client.MaxRetries, cfg.Client.RetryBackoffMax)
	}

	if c.numShards > 1 {
		// Materialize every inode's tag block and freeze authority
		// resolution while still single-threaded: windows read tags and
		// walk authority concurrently, so neither may allocate or
		// memoize mid-window. The memo pass re-runs at barriers when a
		// delegation bumps the table epoch.
		snap.Tree.Walk(func(n *namespace.Inode) bool {
			_ = partition.TagsOf(n)
			return true
		})
		switch s := c.Strategy.(type) {
		case *core.DynamicSubtree:
			c.table = s.Table
		case *partition.StaticSubtree:
			c.table = s.Table
		}
		if c.table != nil {
			c.table.SetFrozen(true)
			c.table.Memoize(snap.Tree.Root)
			c.tableEpoch = c.table.Epoch()
		}
		// Fault schedules share the plane's RNG and mutate the table
		// mid-window (suspicion -> reassignment), so run the same
		// windowed execution on one goroutine in that mode.
		c.group = sim.NewShardGroup(c.shardEngines, eng, c.Fab.Lookahead(), sched.Empty(), c.barrier)
	}
	c.setupWall = time.Since(setupStart)
	return c, nil
}

// barrier is the sharded executor's window boundary: merge cross-shard
// mail, apply deferred shared-state mutations, dispatch global work
// (balancer rounds, fault events, warmup snapshot) due by now, merge
// any mail that work produced, refresh frozen authority memos if the
// partition moved, and hand consumed replies back to their pools.
func (c *Cluster) barrier(now sim.Time) {
	c.Fab.DrainMail()
	c.group.ApplyDeferred()
	c.Eng.RunUntil(now)
	c.Fab.DrainMail()
	if c.table != nil && c.table.Epoch() != c.tableEpoch {
		c.tableEpoch = c.table.Epoch()
		c.table.Memoize(c.Snap.Tree.Root)
	}
	for s := range c.replyReturns {
		buf := c.replyReturns[s]
		for i, rep := range buf {
			c.Nodes[rep.ServedBy].TakeReply(rep)
			buf[i] = nil
		}
		c.replyReturns[s] = buf[:0]
	}
}

// buildNetModel constructs the fabric latency model from the config;
// the base latencies come from the per-node MDS service model.
func buildNetModel(cfg Config) (net.LatencyModel, error) {
	base := net.Fixed{Net: cfg.MDS.NetLatency, Fwd: cfg.MDS.FwdLatency}
	switch cfg.NetModel {
	case "", net.ModelFixed:
		return base, nil
	case net.ModelQueued:
		return &net.Queued{Base: base, Bandwidth: cfg.LinkBandwidth}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown net model %q", cfg.NetModel)
	}
}

func (c *Cluster) buildStrategy(cfg Config, snap *fsgen.Snapshot) error {
	switch cfg.Strategy {
	case StratDynamic:
		d := core.NewDynamicSubtree(cfg.NumMDS, snap.Tree, cfg.PartitionDepth)
		d.HashDirThreshold = cfg.HashDirThreshold
		c.Dyn = d
		c.Strategy = d
		if cfg.Traffic != nil {
			tc := *cfg.Traffic
			tc.Replications, tc.Consolidations = 0, 0
			c.Traffic = &tc
		}
	case StratStatic:
		c.Strategy = partition.NewStaticSubtree(cfg.NumMDS, snap.Tree, cfg.PartitionDepth)
	case StratDirHash:
		c.Strategy = partition.DirHash{N: cfg.NumMDS}
	case StratFileHash:
		c.Strategy = partition.FileHash{N: cfg.NumMDS}
	case StratLazyHybrid:
		c.Strategy = partition.NewLazyHybrid(cfg.NumMDS)
	default:
		return fmt.Errorf("cluster: unknown strategy %q", cfg.Strategy)
	}
	return nil
}

func (c *Cluster) buildClients() error {
	cfg := c.Cfg
	numClients := cfg.NumMDS * cfg.ClientsPerMDS
	if cfg.OpenLoop != nil {
		return c.buildPopulation()
	}
	if numClients < 1 {
		return fmt.Errorf("cluster: no clients configured")
	}
	w := cfg.Workload

	// Scenario fixtures.
	var shiftRegion []*namespace.Inode
	var flashTarget *namespace.Inode
	switch w.Kind {
	case WorkShift:
		// The new region is every home served by one target node:
		// "portions of the hierarchy served by a single MDS" (§5.3.2).
		// Prefer a target that is NOT the owner of /home itself, so
		// that deepest-known-prefix direction through /home genuinely
		// misdirects and the discovery cost is representative.
		homeDir := c.Snap.Homes[0].Parent()
		homeOwner := c.Strategy.Authority(homeDir)
		target := c.Strategy.Authority(c.Snap.Homes[len(c.Snap.Homes)-1])
		if target == homeOwner && cfg.NumMDS > 1 {
			for i := len(c.Snap.Homes) - 1; i >= 0; i-- {
				if a := c.Strategy.Authority(c.Snap.Homes[i]); a != homeOwner {
					target = a
					break
				}
			}
		}
		// Cap the region so the migrated working set is cacheable on
		// one node: the imbalance then saturates the busy node's CPU
		// rather than its disk, which is the regime Figure 5 plots.
		for _, h := range c.Snap.Homes {
			if c.Strategy.Authority(h) == target {
				shiftRegion = append(shiftRegion, h)
				if len(shiftRegion) >= 8 {
					break
				}
			}
		}
	case WorkFlashCrowd:
		if len(c.Snap.Projects) == 0 || c.Snap.Projects[0].NumChildren() == 0 {
			return fmt.Errorf("cluster: flash crowd needs a project file")
		}
		flashTarget = c.Snap.Projects[0].Child(0)
	}

	shared := []*namespace.Inode{}
	if c.Snap.System != nil {
		shared = append(shared, c.Snap.System)
	}
	shared = append(shared, c.Snap.Projects...)

	for i := 0; i < numClients; i++ {
		region := workload.Region{
			Home:   c.Snap.Homes[i%len(c.Snap.Homes)],
			Shared: shared,
		}
		g := workload.NewGeneral(i, w.General, region)
		var gen workload.Generator = g
		switch w.Kind {
		case WorkShift:
			migrate := float64(i) < w.ShiftFraction*float64(numClients)
			gen = workload.NewShift(g, w.ShiftTime, shiftRegion, migrate)
		case WorkFlashCrowd:
			gen = workload.NewFlashCrowd(g, w.FlashTime, w.FlashDuration, flashTarget)
		case WorkScientific:
			job := c.Snap.Projects[i%len(c.Snap.Projects)]
			gen = workload.NewScientific(g, job, w.PhaseLength, w.BurstFraction)
		}
		rng := sim.NewStream(cfg.Seed, fmt.Sprintf("client-%d", i))
		cliEng := c.Eng
		if c.numShards > 1 {
			cliEng = c.shardEngines[i%c.numShards]
		}
		c.Clients = append(c.Clients, client.New(i, cliEng, cfg.Client, rng, c, c.Strategy, gen))
	}
	return nil
}

// buildPopulation assembles the open-loop traffic plane: the tenant
// model over the snapshot's homes, then the flyweight population with
// one timer wheel per shard engine.
func (c *Cluster) buildPopulation() error {
	cfg := c.Cfg
	pcfg := *cfg.OpenLoop
	if pcfg.Clients <= 0 {
		pcfg.Clients = cfg.NumMDS * cfg.ClientsPerMDS
	}
	if pcfg.Clients < 1 {
		return fmt.Errorf("cluster: no clients configured")
	}
	if len(c.Snap.Homes) == 0 {
		return fmt.Errorf("cluster: open-loop traffic plane needs home directories in the snapshot")
	}
	tenants := workload.NewTenants(pcfg.Tenant, pcfg.Clients, c.Snap.Homes, cfg.Seed)
	engines := []*sim.Engine{c.Eng}
	if c.numShards > 1 {
		engines = c.shardEngines
	}
	c.tenants = tenants
	c.Pop = client.NewPopulation(pcfg, engines, c, c.Strategy, tenants, cfg.Seed)
	if pcfg.ChurnBase > 0 {
		victims := baseVictims(c.Snap.Tree, tenants, pcfg.ChurnBase)
		if len(victims) == 0 {
			return fmt.Errorf("cluster: ChurnBase %d but no base files outside the tenant working sets", pcfg.ChurnBase)
		}
		c.Pop.SeedBaseVictims(victims)
	}
	return nil
}

// baseVictims picks up to limit frozen base files for unlink churn, in
// deterministic tree-walk order, excluding every inode a tenant alias
// table can return so working-set pointers never dangle.
func baseVictims(tree *namespace.Tree, tenants *workload.Tenants, limit int) []*namespace.Inode {
	reserved := make(map[*namespace.Inode]struct{})
	tenants.ForEachTarget(func(n *namespace.Inode) { reserved[n] = struct{}{} })
	var victims []*namespace.Inode
	tree.Walk(func(n *namespace.Inode) bool {
		if len(victims) >= limit {
			return false
		}
		if n.IsDir() || !tree.IsBase(n.ID) {
			return true
		}
		if _, ok := reserved[n]; ok {
			return true
		}
		victims = append(victims, n)
		return true
	})
	return victims
}

// Node implements mds.Cluster.
func (c *Cluster) Node(i int) *mds.MDS { return c.Nodes[i] }

// NumMDS implements mds.Cluster and client.Network.
func (c *Cluster) NumMDS() int { return len(c.Nodes) }

// Tree implements mds.Cluster.
func (c *Cluster) Tree() *namespace.Tree { return c.Snap.Tree }

// Fabric implements mds.Cluster: the message fabric shared by every
// node and the client edge.
func (c *Cluster) Fabric() *net.Fabric { return c.Fab }

// Deliver implements mds.Cluster: route the reply to its client and, if
// the client accepts it, record the completion — the one place a
// response time is measured. When sharded this runs on the client's
// shard and writes that shard's lane; the consumed reply is parked in
// the shard's return buffer until the barrier recycles it into the
// serving node's pool (the two may live on different shards). A fault
// schedule runs the windows on one goroutine, so CompletedOps needs no
// lane.
func (c *Cluster) Deliver(rep *msg.Reply) {
	eng, lat, shard := c.Eng, c.LatH, 0
	if c.numShards > 1 {
		shard = rep.Client % c.numShards
		eng, lat = c.shardEngines[shard], c.latHistLanes[shard]
	}
	var accepted bool
	if c.Pop != nil {
		accepted = c.Pop.OnReply(rep)
	} else {
		accepted = c.Clients[rep.Client].OnReply(rep)
	}
	if accepted {
		lat.Observe(rep.Latency())
		if c.CompletedOps != nil {
			c.CompletedOps.Observe(eng.Now(), 1)
		}
	}
	if c.numShards > 1 {
		c.replyReturns[shard] = append(c.replyReturns[shard], rep)
	}
}

// DeliverConsumesReply tells the MDS that Deliver hands the reply to
// the client synchronously and retains no reference, so reply structs
// (and their hint slices) may be pooled.
func (c *Cluster) DeliverConsumesReply() bool { return true }

// ClientShard tells the MDS which shard runs a client's event loop
// (clients are striped round-robin across shards).
func (c *Cluster) ClientShard(client int) int {
	if c.numShards > 1 {
		return client % c.numShards
	}
	return 0
}

// RoutesReplies tells the MDS that consumed replies return to its pool
// at barriers (via TakeReply) rather than inline from Deliver.
func (c *Cluster) RoutesReplies() bool { return c.numShards > 1 }

// LeaseRecallDeliver lands a lease-recall notice at the client edge:
// the generation bump (shared registry state) is deferred on the
// delivering engine so it applies at the barrier when sharded, and a
// LeaseAck rides back to the recalling authority. Recalls always travel
// to edge shard 0 — the registry is shard-agnostic, so any one delivery
// invalidates the lease for every client. Acks are sent exactly on
// delivery, so LeaseAck.Sent == LeaseRecall.Delivered even when a fault
// plane drops recalls (a lost recall is bounded by the lease lifetime:
// holders lapse at expiry instead).
func (c *Cluster) LeaseRecallDeliver(from int, target *namespace.Inode) {
	eng := c.Eng
	if c.numShards > 1 {
		eng = c.shardEngines[0]
	}
	eng.Defer(lease.NoteRecalled, c.Lease, target)
	c.Fab.SendFromEdge(0, net.LeaseAck, from, net.Bytes(net.LeaseAck), leaseAckArrive, c.Nodes[from], nil)
}

// leaseAckArrive completes the recall round trip at the authority.
func leaseAckArrive(a, _ any) { a.(*mds.MDS).NoteLeaseAck() }

// Send implements client.Network: the client→MDS hop enters the fabric
// at the client edge — specifically the sending client's shard's slice
// of it, so concurrent shards never share an edge-row counter.
func (c *Cluster) Send(i int, req *msg.Request) {
	if c.numShards > 1 {
		shard := req.Client % c.numShards
		c.arrivalLanes[shard].Observe(c.shardEngines[shard].Now(), 1)
		c.Fab.SendFromEdge(shard, net.Request, i, net.Bytes(net.Request), nodeReceive, c.Nodes[i], req)
		return
	}
	c.Arrivals.Observe(c.Eng.Now(), 1)
	c.Fab.Send(net.Request, c.Fab.ClientEdge(), i, net.Bytes(net.Request), nodeReceive, c.Nodes[i], req)
}

// nodeReceive delivers a client request at its MDS after the network hop.
func nodeReceive(a, b any) { a.(*mds.MDS).Receive(b.(*msg.Request)) }

// snapshotWarmup records aggregate counters at the end of the warmup
// window so Result reports steady-state numbers.
func (c *Cluster) snapshotWarmup() {
	c.warmTaken = true
	for _, n := range c.Nodes {
		c.warmServed += n.Stats.Served
		c.warmForwards += n.Stats.Forwarded
		c.warmArrivals += n.Stats.ClientArrivals
		c.warmHits += n.Cache().Stats.Hits
		c.warmMisses += n.Cache().Stats.Misses
	}
}

// Run executes the simulation and gathers results.
func (c *Cluster) Run() *Result {
	c.StartEndure()
	c.RunTo(c.Cfg.Duration)
	return c.Collect()
}

// ExecutedEvents returns events dispatched across every engine in the
// run — the serial engine alone, or the global engine plus all shards.
func (c *Cluster) ExecutedEvents() uint64 {
	if c.group != nil {
		return c.group.ExecutedEvents()
	}
	return c.Eng.Executed
}

// Windows returns the number of lookahead windows executed (0 serial).
func (c *Cluster) Windows() uint64 {
	if c.group == nil {
		return 0
	}
	return c.group.Windows
}

// Result aggregates a finished run.
type Result struct {
	Strategy      string
	NumMDS        int
	Clients       int
	FSInodes      int
	Window        sim.Time // measurement window (duration - warmup)
	MeasuredOps   uint64
	AvgThroughput float64 // per-MDS ops/sec in the window
	PerMDSOps     []float64
	HitRate       float64
	PrefixFrac    float64
	ForwardFrac   float64
	MeanLatency   float64 // seconds; exact (Cluster.LatH's integer sum)
	Migrations    int
	Delegations   int // subtree delegations in the dynamic partition at the end
	Replications  uint64
	LHDebt        int
	CacheLen      int
	// Distributed-write mechanism activity (§4.2).
	WritesAbsorbed uint64
	SizeCallbacks  uint64
	// LatencyP50, LatencyP99 and LatencyP999 are client response-time
	// quantile bounds in seconds (whole run, including warmup), from the
	// same histogram as MeanLatency: Cluster.LatH.
	LatencyP50  float64
	LatencyP99  float64
	LatencyP999 float64

	// Open-loop traffic-plane accounting (zero / false when closed loop).
	OpenLoop  bool
	Issued    uint64
	Completed uint64
	// PopFootprint is the traffic plane's structural bytes (slabs,
	// wheels, hint table, tenant tables, lease slab when attached).
	PopFootprint int64
	// Acts holds per-act metrics when the run was scripted (Config.Acts),
	// in timeline order.
	Acts []ActResult

	// Lease-plane accounting (all zero when Config.Lease is off).
	// LeaseHits are arrivals served locally from a valid lease;
	// HotspotLocal/HotspotRemote split ops landing on an act's hotspot
	// target into leased local serves and MDS completions.
	LeaseHits      uint64
	LeaseGrants    uint64
	LeaseRecalls   uint64 // recall notices sent by authorities
	LeaseRecalled  uint64 // recall notices delivered at the edge
	LeaseAcks      uint64
	ReplicaFanouts uint64
	HotspotLocal   uint64
	HotspotRemote  uint64
	LeaseFootprint int // registry + slab structural bytes
	PopRetries     uint64
	PopTimedOut    uint64

	// Wall-clock accounting: SetupWall covers namespace generation (or
	// thaw) plus cluster assembly; RunWall covers event-loop execution.
	// Real time, unrelated to simulated time.
	SetupWall time.Duration
	RunWall   time.Duration
	// Net summarises fabric traffic for the whole run: total messages
	// and bytes, per-class counters, and the deepest per-link queue.
	Net net.Stats

	// Fault-injection accounting (all zero / nil on fault-free runs).
	FaultSchedule string       // the schedule source, "" when disabled
	Retries       uint64       // client retransmissions
	TimedOut      uint64       // client requests abandoned after retries
	FetchTimeouts uint64       // MDS remote-fetch timeouts
	FwdTimeouts   uint64       // MDS forward-ack timeouts
	DeadLetters   uint64       // requests dropped for a confirmed-down authority
	Suspicions    uint64       // missed-timeout strikes recorded
	Failures      []FaultEvent // injected crashes
	Recoveries    []FaultEvent // recoveries, with warmed-record counts
	Downs         []FaultEvent // suspicion-confirmed downs
	// CompletedOps buckets accepted client completions per SeriesBucket —
	// the series behind availability/recovery-time analysis.
	CompletedOps *metrics.Series

	// Series for the over-time figures (bucketed from t=0).
	RepliesPerNode []*metrics.Series
	Forwards       *metrics.Series
	Arrivals       *metrics.Series
	Bucket         sim.Time
}

// Collect assembles the Result (callable after Run).
func (c *Cluster) Collect() *Result {
	cfg := c.Cfg
	if c.numShards > 1 {
		// A sharded run's aggregates are the sum of its lanes, in shard
		// order, rebuilt at every collection: a later Collect (after
		// Drain, say) sees what the lanes have gathered since.
		c.Arrivals, c.Forwards = metrics.NewSeries(cfg.SeriesBucket), metrics.NewSeries(cfg.SeriesBucket)
		c.LatH.Reset()
		for i := 0; i < c.numShards; i++ {
			c.Arrivals.Merge(c.arrivalLanes[i])
			c.Forwards.Merge(c.forwardLanes[i])
			c.LatH.Merge(c.latHistLanes[i])
		}
	}
	window := cfg.Duration - cfg.Warmup
	if !c.warmTaken {
		window = cfg.Duration
	}
	r := &Result{
		Strategy:       cfg.Strategy,
		NumMDS:         cfg.NumMDS,
		Clients:        len(c.Clients),
		FSInodes:       c.Snap.Tree.Len(),
		Window:         window,
		RepliesPerNode: c.RepliesPerNode,
		Forwards:       c.Forwards,
		Arrivals:       c.Arrivals,
		Bucket:         cfg.SeriesBucket,
		SetupWall:      c.setupWall,
		RunWall:        c.runWall,
		Net:            c.Fab.Summary(),
	}
	if c.sched != nil {
		r.FaultSchedule = c.sched.Source()
		r.Suspicions = c.suspicions
		r.Failures = c.Failures
		r.Recoveries = c.Recoveries
		r.Downs = c.Downs
		r.CompletedOps = c.CompletedOps
		for _, cl := range c.Clients {
			r.Retries += cl.Stats.Retries
			r.TimedOut += cl.Stats.TimedOut
		}
	}
	var served, forwards, arrivals, hits, misses uint64
	for _, n := range c.Nodes {
		served += n.Stats.Served
		forwards += n.Stats.Forwarded
		arrivals += n.Stats.ClientArrivals
		hits += n.Cache().Stats.Hits
		misses += n.Cache().Stats.Misses
		r.PrefixFrac += n.Cache().PrefixFraction()
		r.CacheLen += n.Cache().Len()
		r.WritesAbsorbed += n.Stats.WritesAbsorbed
		r.SizeCallbacks += n.Stats.SizeCallbacks
		r.FetchTimeouts += n.Stats.FetchTimeouts
		r.FwdTimeouts += n.Stats.FwdTimeouts
		r.DeadLetters += n.Stats.DeadLetters
		r.LeaseGrants += n.Stats.LeaseGrants
		r.LeaseRecalls += n.Stats.LeaseRecalls
		r.LeaseAcks += n.Stats.LeaseAcks
		r.ReplicaFanouts += n.Stats.ReplicaFanouts
	}
	if c.Lease != nil {
		r.LeaseRecalled = c.Lease.Recalled
		r.LeaseFootprint = c.Lease.FootprintBytes()
	}
	r.PrefixFrac /= float64(len(c.Nodes))
	served -= c.warmServed
	forwards -= c.warmForwards
	arrivals -= c.warmArrivals
	hits -= c.warmHits
	misses -= c.warmMisses

	r.MeasuredOps = served
	if window > 0 {
		r.AvgThroughput = float64(served) / window.Seconds() / float64(len(c.Nodes))
	}
	if hits+misses > 0 {
		r.HitRate = float64(hits) / float64(hits+misses)
	}
	if arrivals > 0 {
		r.ForwardFrac = float64(forwards) / float64(arrivals)
	}
	r.MeanLatency = c.LatH.Mean()
	r.LatencyP50 = c.LatH.Quantile(0.5).Seconds()
	r.LatencyP99 = c.LatH.Quantile(0.99).Seconds()
	r.LatencyP999 = c.LatH.Quantile(0.999).Seconds()
	if c.Pop != nil {
		r.OpenLoop = true
		r.Clients = c.Pop.Clients()
		r.Issued = c.Pop.Issued()
		r.Completed = c.Pop.Completed()
		r.PopFootprint = c.Pop.FootprintBytes()
		r.LeaseHits = c.Pop.LeaseHits()
		r.HotspotLocal, r.HotspotRemote = c.Pop.HotspotOps()
		r.PopRetries = c.Pop.Retries()
		r.PopTimedOut = c.Pop.TimedOut()
		r.Retries += r.PopRetries
		r.TimedOut += r.PopTimedOut
		c.collectActs(r)
	} else {
		for _, cl := range c.Clients {
			r.Issued += cl.Stats.Issued
			r.Completed += cl.Stats.Completed
		}
	}
	if c.Balancer != nil {
		r.Migrations = len(c.Balancer.Migrations)
	}
	if c.Dyn != nil {
		r.Delegations = c.Dyn.Table.NumDelegations()
	}
	if c.Traffic != nil {
		r.Replications = c.Traffic.Replications
	}
	if lh, ok := c.Strategy.(*partition.LazyHybrid); ok {
		r.LHDebt = lh.Debt
	}
	// Per-node throughput within the window, from the reply series.
	for _, s := range c.RepliesPerNode {
		var ops float64
		startBucket := int(cfg.Warmup / cfg.SeriesBucket)
		for i := startBucket; i < s.Len(); i++ {
			ops += s.Sum(i)
		}
		r.PerMDSOps = append(r.PerMDSOps, ops/window.Seconds())
	}
	return r
}

func (r *Result) String() string {
	return fmt.Sprintf("%-14s mds=%-3d clients=%-5d fs=%-7d avg=%7.1f ops/s/mds hit=%.3f prefix=%.3f fwd=%.3f lat=%.2fms migr=%d",
		r.Strategy, r.NumMDS, r.Clients, r.FSInodes, r.AvgThroughput,
		r.HitRate, r.PrefixFrac, r.ForwardFrac, r.MeanLatency*1000, r.Migrations)
}
