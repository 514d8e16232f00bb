// Command mdsim runs the metadata-cluster simulation experiments that
// regenerate the paper's figures, a scenario plan, a chaos budget, an
// endurance run, or a single custom configuration. Performance is
// measured by the repository benchmark (go run ./bench), not here.
//
// Usage:
//
//	mdsim -fig 2            # regenerate Figure 2 (full scale)
//	mdsim -fig all -quick   # all figures, reduced scale
//	mdsim -strategy DynamicSubtree -mds 8 -clients 40 -dur 20
//	mdsim -plan hotspot-duel -quick
//	mdsim -fig 2 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Exit status: 0 on success, 1 when a run fails (simfsck violation,
// I/O error), 2 on a usage error — always before any event runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"dynmds/internal/chaos"
	"dynmds/internal/client"
	"dynmds/internal/cluster"
	"dynmds/internal/fault"
	"dynmds/internal/harness"
	simnet "dynmds/internal/net"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is one invocation's output streams and flag set; its methods
// render the two failure classes.
type cli struct {
	stdout, stderr io.Writer
	flags          *flag.FlagSet
}

// usage reports a usage error: the message, the flag summary, exit 2.
func (c cli) usage(format string, a ...interface{}) int {
	fmt.Fprintf(c.stderr, "mdsim: "+format+"\n", a...)
	c.flags.Usage()
	return 2
}

// fail reports a run-time failure: exit 1.
func (c cli) fail(err error) int {
	fmt.Fprintln(c.stderr, "mdsim:", err)
	return 1
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "", "experiment: 2..7, 'sci', 'failover', 'avail', 'clients', or 'all'")
		quick    = fs.Bool("quick", false, "reduced-scale experiments")
		seed     = fs.Int64("seed", 1, "simulation seed")
		strategy = fs.String("strategy", cluster.StratDynamic, "strategy for a custom run")
		nmds     = fs.Int("mds", 4, "cluster size for a custom run")
		clients  = fs.Int("clients", 40, "clients per MDS for a custom run")
		users    = fs.Int("users", 100, "file-system users for a custom run")
		cacheCap = fs.Int("cache", 2000, "MDS cache capacity (records)")
		dur      = fs.Float64("dur", 20, "duration in simulated seconds")
		warm     = fs.Float64("warmup", 5, "warmup in simulated seconds (custom runs: must be less than -dur)")
	)
	list := fs.Bool("list", false, "list available experiments")
	planArg := fs.String("plan", "", "run a scenario plan: a library plan name, 'all', or a plan DSL file path")
	planList := fs.Bool("list-plans", false, "list the scenario plan library")
	netModel := fs.String("net-model", simnet.ModelFixed, "fabric latency model: fixed or queued")
	faults := fs.String("faults", "", "fault schedule for a custom run, e.g. 'crash@3s-6s:mds1,drop@0.02:all' (see internal/fault)")
	chaosRuns := fs.Int("chaos-runs", 0, "run a seeded chaos fuzz budget: this many generated schedules, each against every strategy, each run checked by simfsck")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the chaos budget (same seed = bit-identical schedules and results)")
	chaosIntensity := fs.Float64("chaos-intensity", 1, "chaos generator intensity (scales fault counts and magnitudes)")
	linkBW := fs.Float64("link-bw", 0, "queued-model link bandwidth in bytes per simulated second (0 = default; needs -net-model queued)")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "per-run shard count for the conservative parallel engine (0 = serial); workers x shards is capped at GOMAXPROCS")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	openLoop := fs.Int("open-loop", 0, "run the open-loop flyweight traffic plane with this many total clients (0 = closed loop)")
	openRate := fs.Float64("open-rate", 10, "open loop: per-client mean arrival rate, ops/sec")
	openTenants := fs.Int("open-tenants", 0, "open loop: tenant count (0 = clients/1024, min 16)")
	tenantSkew := fs.Float64("tenant-skew", 1.0, "open loop: Zipf exponent for tenant sizes")
	fileSkew := fs.Float64("file-skew", 1.0, "open loop: Zipf exponent for working-set popularity")
	diurnal := fs.Float64("diurnal", 0, "open loop: diurnal rate-modulation amplitude (0..1)")
	burstProb := fs.Float64("burst-prob", 0, "open loop: per-tenant-epoch burst probability")
	leases := fs.Bool("leases", false, "open loop: grant coherent client read leases (requires -open-loop)")
	replicaFanout := fs.Bool("replica-fanout", false, "push hot-directory replicas to peers ahead of demand")
	endureRun := fs.Bool("endure", false, "run the endurance plane: churn the namespace over the full duration with periodic quiesce/checkpoint cycles (requires -open-loop)")
	ckEvery := fs.Float64("checkpoint-every", 0, "endurance checkpoint cadence in simulated seconds (required with -endure; must exceed the quiesce drain)")
	ckDir := fs.String("checkpoint-dir", "", "endurance: write checkpoint snapshots into this directory")
	restorePath := fs.String("restore", "", "endurance: resume from this checkpoint snapshot instead of starting at t=0")
	compactAt := fs.Int("compact-at", 0, "endurance: tombstone count that triggers overlay compaction (0 = default, negative = never compact)")
	soakCycles := fs.Int("soak-cycles", 0, "run the rolling chaos soak: this many crash/recover cycles over the run, simfsck at every checkpoint (implies -endure gates)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	c := cli{stdout: stdout, stderr: stderr, flags: fs}
	usage, fail := c.usage, c.fail

	// Validate every knob up front, so a typo or an inconsistent
	// combination is a usage error before any simulation work starts.
	if *netModel != simnet.ModelFixed && *netModel != simnet.ModelQueued {
		return usage("unknown -net-model %q (use %q or %q)", *netModel, simnet.ModelFixed, simnet.ModelQueued)
	}
	if *linkBW != 0 && *netModel != simnet.ModelQueued {
		return usage("-link-bw needs -net-model %s (the %s model has no link bandwidth)", simnet.ModelQueued, *netModel)
	}
	if *faults != "" {
		if _, err := fault.ParseSchedule(*faults); err != nil {
			return usage("bad -faults schedule: %v", err)
		}
	}
	if *shards < 0 {
		return usage("-shards must be >= 0, got %d", *shards)
	}
	if *shards > runtime.GOMAXPROCS(0) {
		fmt.Fprintf(stderr, "mdsim: warning: -shards %d exceeds %d cores; expect no speedup\n",
			*shards, runtime.GOMAXPROCS(0))
	}
	if !slices.Contains(cluster.Strategies, *strategy) {
		return usage("unknown -strategy %q (use one of %v)", *strategy, cluster.Strategies)
	}
	if *nmds < 1 {
		return usage("-mds must be >= 1, got %d", *nmds)
	}
	var figs []harness.Experiment
	if *fig != "" {
		var err error
		if figs, err = resolveFigures(*fig); err != nil {
			return usage("%v", err)
		}
	}
	// -dur/-warmup shape only the custom run (figures, plans and the
	// chaos budget carry their own horizons).
	custom := *fig == "" && *planArg == "" && *chaosRuns <= 0 && !*list && !*planList
	if custom && (*warm < 0 || *warm >= *dur) {
		return usage("-warmup %g does not fit -dur %g: nothing would be measured past the warm-up", *warm, *dur)
	}
	if *leases && *openLoop <= 0 {
		return usage("-leases requires -open-loop (the lease slab lives in the flyweight population)")
	}
	if *soakCycles > 0 {
		*endureRun = true // the soak is an endurance run with a generated schedule
	}
	if *endureRun {
		if *openLoop <= 0 {
			return usage("-endure requires -open-loop (the endurance plane ages the flyweight population's namespace)")
		}
		if *ckEvery <= cluster.QuiesceDrain.Seconds() {
			return usage("-checkpoint-every must exceed the %gs quiesce drain, got %g", cluster.QuiesceDrain.Seconds(), *ckEvery)
		}
		if *soakCycles > 0 && (*restorePath != "" || *faults != "") {
			return usage("-soak-cycles generates its own fault schedule; drop -restore/-faults")
		}
	} else if *ckEvery != 0 || *ckDir != "" || *restorePath != "" || *compactAt != 0 {
		return usage("-checkpoint-every/-checkpoint-dir/-restore/-compact-at need -endure")
	}

	harness.SetSweepWorkers(*workers)
	harness.SetShards(*shards)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	if *list {
		for _, e := range append(harness.All(), harness.Extras()...) {
			fmt.Fprintf(stdout, "%-10s %s\n           %s\n", e.ID, e.Title, e.Description)
		}
		return 0
	}

	if *planList {
		listPlans(stdout)
		return 0
	}

	opt := harness.Options{Quick: *quick, Seed: *seed, NetModel: *netModel}
	if *planArg != "" {
		if err := runPlans(stdout, *planArg, opt); err != nil {
			// Plan failures are configuration errors caught before (or
			// while constructing) any simulation — usage errors, like a
			// bad -faults schedule.
			fmt.Fprintln(stderr, "mdsim:", err)
			return 2
		}
		return 0
	}

	if *chaosRuns > 0 {
		rep, err := harness.Chaos(harness.ChaosOptions{
			Seed:      *chaosSeed,
			Schedules: *chaosRuns,
			Intensity: *chaosIntensity,
			NetModel:  *netModel,
			Shards:    *shards,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, rep)
		if rep.Failed > 0 {
			return 1
		}
		return 0
	}

	if figs != nil {
		if err := runFigures(stdout, figs, opt); err != nil {
			return fail(err)
		}
		return 0
	}

	cfg := cluster.Default()
	cfg.Seed = *seed
	cfg.Strategy = *strategy
	cfg.NumMDS = *nmds
	cfg.ClientsPerMDS = *clients
	cfg.FS.Users = *users
	cfg.MDS.CacheCapacity = *cacheCap
	cfg.MDS.Storage.LogCapacity = *cacheCap
	cfg.NetModel = *netModel
	cfg.LinkBandwidth = *linkBW
	cfg.Faults = *faults
	cfg.Shards = *shards
	cfg.Duration = sim.FromSeconds(*dur)
	cfg.Warmup = sim.FromSeconds(*warm)
	if *openLoop > 0 {
		cfg.OpenLoop = &client.PopulationConfig{
			Clients: *openLoop,
			Rate:    *openRate,
			Tenant: workload.TenantConfig{
				Tenants:    *openTenants,
				TenantSkew: *tenantSkew,
				FileSkew:   *fileSkew,
			},
			DiurnalAmp: *diurnal,
			BurstProb:  *burstProb,
		}
	}
	cfg.Lease.Enabled = *leases
	cfg.Lease.Fanout = *replicaFanout

	if *endureRun {
		return runEndure(c, cfg, endureFlags{
			every:      *ckEvery,
			dir:        *ckDir,
			restore:    *restorePath,
			compactAt:  *compactAt,
			soakCycles: *soakCycles,
			seed:       *seed,
		})
	}

	// Custom runs build the cluster directly (not via harness.RunOne):
	// a -faults run is drained and checked by simfsck afterwards, which
	// needs the live cluster, and a single run gains nothing from the
	// shared snapshot cache.
	start := time.Now()
	heapBase := heapBytes(*openLoop > 0)
	cl, err := cluster.New(cfg)
	if err != nil {
		return fail(err)
	}
	base := chaos.Capture(cl)
	res := cl.Run()
	fmt.Fprintln(stdout, res)
	if res.OpenLoop {
		heapPerClient := float64(heapBytes(true)-heapBase) / float64(res.Clients)
		fmt.Fprintf(stdout, "open loop: %d clients, issued %d, completed %d\n",
			res.Clients, res.Issued, res.Completed)
		fmt.Fprintf(stdout, "latency: p50 %.3fms p99 %.3fms p999 %.3fms mean %.3fms\n",
			res.LatencyP50*1000, res.LatencyP99*1000, res.LatencyP999*1000, res.MeanLatency*1000)
		fmt.Fprintf(stdout, "memory: plane %.1f B/client structural, %.1f B/client heap delta (fs+cluster+plane)\n",
			float64(res.PopFootprint)/float64(res.Clients), heapPerClient)
		if *leases || *replicaFanout {
			fmt.Fprintf(stdout, "leases: %d grants, %d local hits, recalls %d sent / %d delivered / %d acked, %d fanouts, slab+registry %d B\n",
				res.LeaseGrants, res.LeaseHits, res.LeaseRecalls,
				res.LeaseRecalled, res.LeaseAcks, res.ReplicaFanouts, res.LeaseFootprint)
		}
		runtime.KeepAlive(cl)
	}
	fmt.Fprintf(stdout, "fabric (%s model): %d messages, %d bytes, max link queue %d\n",
		res.Net.Model, res.Net.Messages, res.Net.Bytes, res.Net.MaxQueueDepth)
	fmt.Fprint(stdout, res.Net.Table())
	fmt.Fprint(stdout, res.FaultSummary())
	rc := 0
	if cfg.Faults != "" {
		cl.Drain()
		if err := chaos.Fsck(cl, base); err != nil {
			fmt.Fprintf(stdout, "simfsck: FAIL\n%v\n", err)
			rc = 1
		} else {
			fmt.Fprintln(stdout, "simfsck: clean")
		}
	}
	fmt.Fprintf(stdout, "wall time: %v (setup %v, run %v)\n",
		time.Since(start).Round(time.Millisecond),
		res.SetupWall.Round(time.Millisecond), res.RunWall.Round(time.Millisecond))
	return rc
}

// heapBytes returns live heap bytes after a forced GC (0 when not
// wanted, so closed-loop custom runs skip the GC pauses entirely).
func heapBytes(want bool) int64 {
	if !want {
		return 0
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// resolveFigures maps the -fig argument to experiments: "all", a bare
// figure number, or an experiment ID.
func resolveFigures(which string) ([]harness.Experiment, error) {
	if which == "all" {
		return append(harness.All(), harness.Extras()...), nil
	}
	e, ok := harness.ByID("fig" + which)
	if !ok {
		e, ok = harness.ByID(which)
	}
	if !ok {
		return nil, fmt.Errorf("unknown -fig %q (use 2..7, an experiment ID from -list, or 'all')", which)
	}
	return []harness.Experiment{e}, nil
}

func runFigures(w io.Writer, exps []harness.Experiment, opt harness.Options) error {
	for _, e := range exps {
		start := time.Now()
		fmt.Fprintf(w, "== %s ==\n%s\n\n", e.Title, e.Description)
		if err := e.Run(w, opt); err != nil {
			return err
		}
		fmt.Fprintf(w, "(wall time %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}
