// Package cluster assembles a complete simulation: the synthetic file
// system, the MDS nodes with a chosen partitioning strategy, the client
// population with its workload, the load balancer and traffic control
// for the dynamic strategy, and the measurement plumbing that the
// experiment harness reads.
package cluster

import (
	"fmt"
	"strings"
	"time"

	"dynmds/internal/cache"
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
	"dynmds/internal/storage"
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

	// ShiftTime is when the shift scenario's clients move (Figures 5/6).
	ShiftTime sim.Time
}

// shiftFraction is the fraction of clients the shift scenario migrates.
const shiftFraction = 0.5

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
	// (the default; reproduces the constant netLatency/fwdLatency hops
	// exactly) or net.ModelQueued (adds per-link serialization delay
	// from message size at net.DefaultBandwidth).
	NetModel string

	// Faults is a fault-injection schedule in the internal/fault DSL,
	// e.g. "crash@30s:mds3,drop@0.01:link2-5,partition@60s-90s:{0-3|4-7}".
	// Empty (or all-whitespace) disables fault injection entirely; runs
	// are then bit-identical to a build without this field. A non-empty
	// schedule puts the cluster in fault mode (see faults.go): client
	// retries, MDS fetch and forward timeouts and suspicion, so that
	// crashes and drops are survivable out of the box.
	Faults string

	// Snapshot, when non-nil, is a pre-generated frozen namespace shared
	// with other runs; nil, New generates one from FS and Seed. Either
	// way the run thaws a private copy-on-write overlay over it, and
	// FS/Seed still key the workload RNG streams, so the results are
	// bit-identical.
	Snapshot *fsgen.FrozenSnapshot

	// Balancer enables dynamic load balancing (DynamicSubtree only).
	Balancer *core.BalancerConfig
	// Traffic's thresholds arm traffic control's §4.4 rule and §5.4 pull
	// (DynamicSubtree only), copied into a fresh controller.
	Traffic *core.TrafficControl
	// HashDirThreshold enables dynamic directory hashing (§4.3;
	// DynamicSubtree only).
	HashDirThreshold int
	// OSDs, when > 0, backs all MDS storage with one shared object
	// pool of that many devices, two replicas per object (§2.1.3),
	// instead of node-local disks.
	OSDs int
	// NoEmbed stores a StaticSubtree partition's inodes one by one
	// instead of embedded in their directories (§4.5): the same
	// partition, per-inode I/O — the embedded-inode ablation.
	NoEmbed bool

	// OpenLoop, when non-nil, replaces the closed-loop per-object client
	// population with the open-loop flyweight traffic plane: dense
	// per-client records, tenants with Zipf-distributed sizes, Poisson
	// arrivals (with diurnal/burst modulation) scheduled through a
	// hierarchical timer wheel. OpenLoop.Clients defaults to
	// NumMDS·ClientsPerMDS. Incompatible with non-general workload kinds
	// (the open loop has no scenario hooks). Its requests follow the one
	// lifecycle a closed-loop client's do (client.Requests), retries
	// included, so a fault schedule composes.
	OpenLoop *client.PopulationConfig

	// Lease configures coherent client read leases (Lease.Enabled, the
	// lease plane; requires OpenLoop) and hot-directory replica fan-out
	// (Lease.Fanout, traffic control's directory rule). The zero value
	// disables both and leaves runs bit-identical to a build without them.
	Lease lease.Config

	// Acts, when non-empty, scripts the open-loop run as a timeline of
	// scenario acts — timed rate/mix/skew/hotspot retargets of the
	// traffic plane (see ActConfig). Requires OpenLoop; validated by
	// Validate and resolved against the namespace in New, before any
	// simulation.
	Acts []ActConfig

	// Shards is ignored: every run is one engine on one goroutine. It
	// is kept only because bench/shard.go still sets it, and goes with
	// that file (ROADMAP, ledger item (f)).
	Shards int

	Duration     sim.Time
	Warmup       sim.Time
	SeriesBucket sim.Time

	// Checkpoint, when positive, runs the config on the endurance plane
	// (internal/endure): quiesced, simfsck'd and snapshotted at this
	// cadence, which decides when the run is checked and never what it
	// simulates; Validate holds its rules. Soak carries the soak key
	// only as far as plan.Apply, which writes that many rolling
	// crash/recover cycles into Faults and zeroes it.
	Checkpoint sim.Time
	Soak       int
}

// Default returns a small, fast baseline configuration: callers override
// strategy, sizes and workload. Its population (40 clients per MDS) and
// fabric model are the default plan's, so a config that deviates from
// that plan only on keys of the plan key table rebuilds from its -set
// line field for field.
func Default() Config {
	fs := fsgen.Default()
	return Config{
		Seed:           1,
		NumMDS:         4,
		ClientsPerMDS:  40,
		Strategy:       StratDynamic,
		PartitionDepth: 2,
		FS:             fs,
		MDS:            mds.DefaultConfig(2000),
		Client:         client.Config{ThinkMean: 5 * sim.Millisecond, KnownCap: 2048},
		Workload:       WorkloadConfig{Kind: WorkGeneral, General: workload.DefaultGeneralConfig()},
		Balancer:       ptr(core.DefaultBalancerConfig()),
		Traffic:        core.DefaultTrafficControl(),
		NetModel:       net.ModelFixed,
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
	// Table is the subtree partition's delegation table (nil under the
	// hash strategies).
	Table    *partition.SubtreeTable
	Traffic  *core.TrafficControl // nil with no rule on
	Balancer *core.Balancer
	Nodes    []*mds.MDS
	Clients  []*client.Client
	// Pop is the open-loop traffic plane (nil for closed-loop runs).
	Pop *client.Population
	// Lease is the lease plane (nil unless Cfg.Lease enables leases).
	Lease *lease.Plane
	// tenants is the plane's tenant model, kept for act-driven skew
	// retargets.
	tenants *workload.Tenants
	// acts is the runtime of Cfg.Acts, index for index (setupActs).
	acts []act

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

	// writers is the unflushed-writer masks the nodes share (§4.2).
	writers mds.Writers

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
	// dynamic is set by buildStrategy for DynamicSubtree: the balancer
	// (Cfg.Balancer) moves the table, and failover reassigns a
	// confirmed-down node's subtree roots (reassignRoots).
	dynamic bool

	// Warmup snapshots for windowed aggregates.
	warmServed, warmForwards, warmArrivals uint64
	warmHits, warmMisses                   uint64
	warmTaken                              bool

	// lastSnapLen is the length of the checkpoint this cluster last
	// wrote or was restored from: CheckpointTo's buffer-size hint, not
	// part of any checkpoint.
	lastSnapLen int

	// setupWall is the wall-clock cost of New (generation or thaw plus
	// cluster assembly).
	setupWall time.Duration
	runWall   time.Duration
}

// Validate checks every rule about a run that needs no namespace. New
// calls it first; plan.Apply calls it once a cell is bound, so mdsim
// refuses a bad plan before any event. What needs the namespace — an
// act's hotspot path resolving, a file hotspot taking no directory ops —
// is setupActs's. A checkpoint cadence must exceed the quiesce drain,
// fit the duration, and come with a config the checkpoint codec covers
// (EndureCheck).
func (cfg *Config) Validate() error {
	open := cfg.OpenLoop != nil
	switch k := cfg.Workload.Kind; {
	case cfg.NumMDS < 1:
		return fmt.Errorf("a cluster needs at least one MDS, not %d", cfg.NumMDS)
	case cfg.NumMDS > client.MaxHintMDS:
		return fmt.Errorf("a cluster of %d MDSs is more than the %d a client's location hint can name", cfg.NumMDS, client.MaxHintMDS)
	case cfg.NumMDS > namespace.MaxMDS:
		return fmt.Errorf("a cluster of %d MDSs is more than the %d a replica set can name", cfg.NumMDS, namespace.MaxMDS)
	case cfg.MDS.CacheCapacity > cache.MaxCapacity:
		return fmt.Errorf("a cache of %d records is more than the %d a node's cache can hold", cfg.MDS.CacheCapacity, cache.MaxCapacity)
	case cfg.MDS.Storage.LogCapacity > storage.MaxLogCapacity:
		return fmt.Errorf("a journal of %d records is more than the %d a node's journal can hold", cfg.MDS.Storage.LogCapacity, storage.MaxLogCapacity)
	case cfg.Warmup >= cfg.Duration:
		return fmt.Errorf("warmup %s does not fit the %s duration: nothing would be measured",
			sim.FormatTime(cfg.Warmup), sim.FormatTime(cfg.Duration))
	case cfg.NoEmbed && cfg.Strategy != StratStatic:
		return fmt.Errorf("embed=off needs strategy=%s (the only partition it unembeds)", StratStatic)
	case cfg.HashDirThreshold > 0 && cfg.Strategy != StratDynamic:
		return fmt.Errorf("dirhash-at needs strategy=%s (the only partition that hashes a directory)", StratDynamic)
	case cfg.Lease.Enabled && !open:
		return fmt.Errorf("client leases need an open-loop population (a traffic rate)")
	case open && k != "" && k != WorkGeneral:
		return fmt.Errorf("workload %s needs a closed loop (no traffic rate)", k)
	case len(cfg.Acts) > 0 && !open:
		return fmt.Errorf("acts need an open-loop population (a traffic rate)")
	}
	sched, err := fault.ParseSchedule(cfg.Faults)
	if err == nil {
		err = sched.Validate(cfg.NumMDS)
	}
	if err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	// Acts are named, move forward, end inside the run and after the one
	// before, and carry a hotspot and its fraction together.
	for i, a := range cfg.Acts {
		switch {
		case a.Name == "":
			return fmt.Errorf("act %d has no name", i)
		case a.From < 0 || a.To <= a.From:
			return fmt.Errorf("act %q: window %s..%s does not move forward", a.Name, sim.FormatTime(a.From), sim.FormatTime(a.To))
		case a.To > cfg.Duration:
			return fmt.Errorf("act %q ends at %s, past the %s duration", a.Name, sim.FormatTime(a.To), sim.FormatTime(cfg.Duration))
		case i > 0 && a.From < cfg.Acts[i-1].To:
			return fmt.Errorf("act %q (from %s) overlaps act %q (ends %s)",
				a.Name, sim.FormatTime(a.From), cfg.Acts[i-1].Name, sim.FormatTime(cfg.Acts[i-1].To))
		case a.RateMul < 0:
			return fmt.Errorf("act %q: rate multiplier %g is negative", a.Name, a.RateMul)
		case min(a.MixStat, a.MixReaddir, a.MixChmod, a.MixCreate, a.MixRename, a.MixUnlink) < 0:
			return fmt.Errorf("act %q: negative mix weight", a.Name)
		case (a.Hotspot == "") != (a.HotFrac == 0):
			return fmt.Errorf("act %q: a hotspot takes a target path and a fraction together", a.Name)
		case a.HotFrac < 0 || a.HotFrac > 1:
			return fmt.Errorf("act %q: hotspot fraction %g outside (0, 1]", a.Name, a.HotFrac)
		case a.Hotspot != "" && !strings.HasPrefix(a.Hotspot, "/"):
			return fmt.Errorf("act %q: hotspot target %q is not an absolute path", a.Name, a.Hotspot)
		}
	}
	switch err := cfg.EndureCheck(); {
	case cfg.Checkpoint == 0:
		return nil
	case err != nil:
		return err
	case cfg.Checkpoint <= QuiesceDrain:
		return fmt.Errorf("checkpoint %s must exceed the %s quiesce drain",
			sim.FormatTime(cfg.Checkpoint), sim.FormatTime(QuiesceDrain))
	case cfg.Duration < cfg.Checkpoint:
		return fmt.Errorf("duration %s is shorter than the %s checkpoint cadence",
			sim.FormatTime(cfg.Duration), sim.FormatTime(cfg.Checkpoint))
	}
	return nil
}

// New builds a cluster from the configuration.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.SeriesBucket <= 0 {
		cfg.SeriesBucket = sim.Second
	}
	sched, _ := fault.ParseSchedule(cfg.Faults) // Validate has parsed it
	if !sched.Empty() && cfg.Client.RetryTimeout <= 0 {
		cfg.Client.RetryTimeout = defaultRetryTimeout
	}
	if err := cfg.Lease.Normalize(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	setupStart := time.Now()
	frozen := cfg.Snapshot
	if frozen == nil {
		fs := cfg.FS
		fs.Seed = cfg.Seed
		var err error
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
	c := &Cluster{
		Cfg:      cfg,
		Eng:      eng,
		Snap:     snap,
		Fab:      net.NewFabric(eng, cfg.NumMDS, model),
		Forwards: metrics.NewSeries(cfg.SeriesBucket),
		Arrivals: metrics.NewSeries(cfg.SeriesBucket),
		LatH:     metrics.NewLatHist(),
		writers:  make(mds.Writers),
	}
	if !sched.Empty() {
		c.sched = sched
		c.plane = fault.NewPlane(cfg.Seed, sched, cfg.NumMDS)
		c.Fab.SetFaultPlane(c.plane)
		c.strikes = make([]int, cfg.NumMDS)
		c.down = make([]bool, cfg.NumMDS)
		c.CompletedOps = metrics.NewSeries(cfg.SeriesBucket)
	}

	if err := c.buildStrategy(cfg, snap); err != nil {
		return nil, err
	}

	// Shared OSD pool, when configured.
	if cfg.OSDs > 0 {
		pool, err := osd.NewPool(eng, osd.DefaultConfig(cfg.OSDs))
		if err != nil {
			return nil, err
		}
		c.Pool = pool
	}

	// Nodes, each with its reply series.
	for i := 0; i < cfg.NumMDS; i++ {
		nodeCfg := cfg.MDS
		if c.Pool != nil {
			nodeCfg.Storage.Pool = c.Pool
			nodeCfg.Storage.PoolOwner = i
		}
		node := mds.New(i, eng, nodeCfg, c.Strategy, c.Traffic, c)
		if c.sched != nil {
			node.EnableFaults()
		}
		c.RepliesPerNode = append(c.RepliesPerNode, metrics.NewSeries(cfg.SeriesBucket))
		c.Nodes = append(c.Nodes, node)
	}

	// Balancer (dynamic only).
	if c.dynamic && cfg.Balancer != nil {
		nodes := make([]core.Node, len(c.Nodes))
		for i, n := range c.Nodes {
			nodes[i] = n
		}
		c.Balancer = core.NewBalancer(eng, *cfg.Balancer, c.Table, nodes)
	}

	// Clients.
	if err := c.buildClients(); err != nil {
		return nil, err
	}

	// Scenario acts: hotspot paths resolved against the fresh
	// namespace, boundaries scheduled.
	if err := c.setupActs(); err != nil {
		return nil, err
	}

	// Lease plane: shared registry sized to the namespace (plus mid-run
	// growth headroom), lease slab sized to the population.
	if cfg.Lease.Enabled {
		c.Lease = lease.NewPlane(cfg.Lease.Duration, c.Pop.Clients(), snap.Tree.MaxID())
		for _, n := range c.Nodes {
			n.AttachLeasePlane(c.Lease)
		}
		c.Pop.AttachLeasePlane(c.Lease)
	}
	c.setupWall = time.Since(setupStart)
	return c, nil
}

// The fabric's one-way hop latencies: client↔MDS, and MDS↔MDS —
// intra-cluster forwarding "is likely to be cheap" (§5.3.3).
const (
	netLatency = 200 * sim.Microsecond
	fwdLatency = 50 * sim.Microsecond
)

// buildNetModel constructs the fabric latency model from the config.
func buildNetModel(cfg Config) (net.LatencyModel, error) {
	base := net.Fixed{Net: netLatency, Fwd: fwdLatency}
	switch cfg.NetModel {
	case "", net.ModelFixed:
		return base, nil
	case net.ModelQueued:
		return &net.Queued{Base: base, Bandwidth: net.DefaultBandwidth}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown net model %q", cfg.NetModel)
	}
}

// buildStrategy builds the partition, and is the one place that decides
// what makes a subtree partition dynamic: for DynamicSubtree, directory
// hashing, traffic control's §4.4 rule (and §5.4's pull), the balancer
// and failover's root reassignment (dynamic). StaticSubtree is the same
// partition without them (§5). It also arms traffic control's directory
// rule under fan-out and its lease rule under leases, whatever the
// strategy.
func (c *Cluster) buildStrategy(cfg Config, snap *fsgen.Snapshot) error {
	var items *core.TrafficControl // the §4.4 and pull rules' template
	switch cfg.Strategy {
	case StratDynamic, StratStatic:
		s := partition.NewStaticSubtree(cfg.NumMDS, snap.Tree, cfg.PartitionDepth)
		s.Scattered = cfg.NoEmbed
		c.Strategy, c.Table = s, s.Table
		if cfg.Strategy == StratDynamic {
			s.HashDirAt = cfg.HashDirThreshold
			items = cfg.Traffic
			c.dynamic = true
		}
	case StratDirHash:
		c.Strategy = partition.DirHash{N: cfg.NumMDS}
	case StratFileHash:
		c.Strategy = partition.FileHash{N: cfg.NumMDS}
	case StratLazyHybrid:
		c.Strategy = partition.NewLazyHybrid(cfg.NumMDS)
	default:
		return fmt.Errorf("cluster: unknown strategy %q", cfg.Strategy)
	}
	c.Traffic = items.ForCluster(cfg.NumMDS > 1, cfg.Lease.Fanout, cfg.Lease.Enabled)
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
			migrate := float64(i) < shiftFraction*float64(numClients)
			gen = workload.NewShift(g, w.ShiftTime, shiftRegion, migrate)
		case WorkFlashCrowd:
			gen = workload.NewFlashCrowd(g, flashTarget)
		case WorkScientific:
			job := c.Snap.Projects[i%len(c.Snap.Projects)]
			gen = workload.NewScientific(g, job)
		}
		rng := sim.NewStream(cfg.Seed, fmt.Sprintf("client-%d", i))
		c.Clients = append(c.Clients, client.New(i, c.Eng, cfg.Client, rng, c, c.Strategy, gen))
	}
	return nil
}

// buildPopulation assembles the open-loop traffic plane: the tenant
// model over the snapshot's homes, then the flyweight population.
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
	c.tenants = tenants
	c.Pop = client.NewPopulation(pcfg, c.Eng, c, c.Strategy, tenants, cfg.Client.RetryTimeout, cfg.Seed)
	c.Pop.SetHorizon(cfg.Duration)
	if n := pcfg.UnlinkReserve(cfg.Duration); n > 0 {
		victims := baseVictims(c.Snap.Tree, tenants, n)
		if len(victims) == 0 {
			return fmt.Errorf("cluster: an unlink reserve of %d but no base files outside the tenant working sets", n)
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

// Writers implements mds.Cluster: the unflushed-writer masks its nodes
// share.
func (c *Cluster) Writers() mds.Writers { return c.writers }

// Deliver implements mds.Cluster: route the reply to its client and, if
// the client accepts it, record the completion — the one place a
// response time is measured.
func (c *Cluster) Deliver(rep *msg.Reply) {
	var accepted bool
	if c.Pop != nil {
		accepted = c.Pop.OnReply(rep)
	} else {
		accepted = c.Clients[rep.Client].OnReply(rep)
	}
	if accepted {
		c.LatH.Observe(rep.Latency())
		if c.CompletedOps != nil {
			c.CompletedOps.Observe(c.Eng.Now(), 1)
		}
	}
}

// NoteReply implements mds.Cluster: node sent a reply.
func (c *Cluster) NoteReply(node int, now sim.Time) { c.RepliesPerNode[node].Observe(now, 1) }

// NoteForward implements mds.Cluster: a node forwarded a request.
func (c *Cluster) NoteForward(now sim.Time) { c.Forwards.Observe(now, 1) }

// LeaseRecallDeliver implements mds.Cluster: a lease-recall notice
// lands at the client edge, where the registry's generation bump
// invalidates the lease for every client at once, and a LeaseAck rides
// back to the recalling authority.
// Acks are sent exactly on delivery, so LeaseAck.Sent ==
// LeaseRecall.Delivered even when a fault plane drops recalls (a lost
// recall is bounded by the lease lifetime: holders lapse at expiry
// instead).
func (c *Cluster) LeaseRecallDeliver(from int, target *namespace.Inode) {
	c.Lease.NoteRecalled(target.ID)
	c.Fab.Send(net.LeaseAck, c.Fab.ClientEdge(), from, net.Bytes(net.LeaseAck), leaseAckArrive, c.Nodes[from], nil)
}

// leaseAckArrive completes the recall round trip at the authority.
func leaseAckArrive(a, _ any) { a.(*mds.MDS).NoteLeaseAck() }

// Send implements client.Network: the client→MDS hop enters the fabric
// at the client edge.
func (c *Cluster) Send(i int, req *msg.Request) {
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

// ExecutedEvents returns the events the run's engine has dispatched.
func (c *Cluster) ExecutedEvents() uint64 { return c.Eng.Executed }

// Windows returns 0. It is kept only because bench/run.go still reads
// it, and goes with Config.Shards (ROADMAP, ledger item (f)).
func (c *Cluster) Windows() uint64 { return 0 }

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
	Delegations   int // subtree delegations in the partition at the end (subtree strategies)
	Replications  uint64
	// WritesAbsorbed counts writes a replica absorbed (§4.2).
	WritesAbsorbed uint64
	// LatencyP50, LatencyP99 and LatencyP999 are client response-time
	// quantile bounds in seconds (whole run, including warmup), from the
	// same histogram as MeanLatency: Cluster.LatH.
	LatencyP50  float64
	LatencyP99  float64
	LatencyP999 float64
	// Replies counts the accepted replies behind them: completions less
	// the lease hits, which are served without one.
	Replies uint64
	// MaxQueue is, per kind of service centre (CPU, read disk, log
	// disk), the deepest waiting line of the run; MaxQueueNode the
	// lowest-numbered node it formed on.
	MaxQueue, MaxQueueNode [3]int

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

	// Series for the over-time figures (bucketed from t=0). Like every
	// series of a Result they are copies: running the cluster on after
	// Collect (a drain) does not move them.
	RepliesPerNode []*metrics.Series
	Forwards       *metrics.Series
	Arrivals       *metrics.Series
	Bucket         sim.Time
}

// Requests sums the counts of the client request lifecycles: the
// population's, or every closed-loop client's.
func (c *Cluster) Requests() client.Counts {
	if c.Pop != nil {
		return c.Pop.Counts()
	}
	var n client.Counts
	for _, cl := range c.Clients {
		n.Add(cl.Counts())
	}
	return n
}

// Collect assembles the Result (callable after Run).
func (c *Cluster) Collect() *Result {
	cfg := c.Cfg
	window := cfg.Duration - cfg.Warmup
	if !c.warmTaken {
		window = cfg.Duration
	}
	r := &Result{
		Strategy:  cfg.Strategy,
		NumMDS:    cfg.NumMDS,
		Clients:   len(c.Clients),
		FSInodes:  c.Snap.Tree.Len(),
		Window:    window,
		Forwards:  c.Forwards.Clone(),
		Arrivals:  c.Arrivals.Clone(),
		Bucket:    cfg.SeriesBucket,
		SetupWall: c.setupWall,
		RunWall:   c.runWall,
		Net:       c.Fab.Summary(),
	}
	if c.sched != nil {
		r.FaultSchedule = c.sched.Source()
		r.Suspicions = c.suspicions
		r.Failures = c.Failures
		r.Recoveries = c.Recoveries
		r.Downs = c.Downs
		r.CompletedOps = c.CompletedOps.Clone()
	}
	n := c.Requests()
	r.Issued, r.Completed, r.Retries, r.TimedOut = n.Issued, n.Completed, n.Retries, n.TimedOut
	var served, forwards, arrivals, hits, misses uint64
	for i, n := range c.Nodes {
		r.RepliesPerNode = append(r.RepliesPerNode, c.RepliesPerNode[i].Clone())
		cpu, readDisk, logDisk := n.MaxQueues()
		for k, d := range [3]int{cpu, readDisk, logDisk} {
			if d > r.MaxQueue[k] {
				r.MaxQueue[k], r.MaxQueueNode[k] = d, i
			}
		}
		served += n.Stats.Served
		forwards += n.Stats.Forwarded
		arrivals += n.Stats.ClientArrivals
		hits += n.Cache().Stats.Hits
		misses += n.Cache().Stats.Misses
		r.PrefixFrac += n.Cache().PrefixFraction()
		r.WritesAbsorbed += n.Stats.WritesAbsorbed
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
	r.Replies = c.LatH.N()
	r.MeanLatency = c.LatH.Mean()
	r.LatencyP50 = c.LatH.Quantile(0.5).Seconds()
	r.LatencyP99 = c.LatH.Quantile(0.99).Seconds()
	r.LatencyP999 = c.LatH.Quantile(0.999).Seconds()
	if c.Pop != nil {
		r.OpenLoop = true
		r.Clients = c.Pop.Clients()
		r.PopFootprint = c.Pop.FootprintBytes()
		r.LeaseHits = c.Pop.LeaseHits()
		r.HotspotLocal, r.HotspotRemote = c.Pop.HotspotOps()
		c.collectActs(r)
	}
	if c.Balancer != nil {
		r.Migrations = c.Balancer.Migrations
	}
	if c.Table != nil {
		r.Delegations = c.Table.NumDelegations()
	}
	if c.Traffic != nil {
		r.Replications = c.Traffic.Replications
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
