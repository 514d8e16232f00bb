// Command mdsim runs one plan: a figure of the paper, an extension, a
// scenario from the plan library, a plan file, or — with no -plan — the
// built-in default plan, one run of the stock cluster reported in full.
// -set key=value overrides a key of the plan key table (internal/plan)
// on every run the plan compiles to. The chaos budget and the endurance
// plane ride on the same description. Performance is measured by the
// repository benchmark (go run ./bench), not here.
//
// Usage:
//
//	mdsim                                       # the default plan
//	mdsim -set strategy=FileHash -set mds=8     # ... reshaped
//	mdsim -plan fig2                            # regenerate Figure 2 (full scale)
//	mdsim -plan figures -quick                  # every figure and extension, reduced scale
//	mdsim -plan hotspot-duel -quick -set net=queued
//	mdsim -plan my.plan -cpuprofile cpu.pprof -memprofile mem.pprof
//	mdsim -list                                 # what -plan accepts
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
	"time"

	"dynmds/internal/chaos"
	"dynmds/internal/cluster"
	"dynmds/internal/harness"
	"dynmds/internal/mds"
	"dynmds/internal/plan"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// invocation is one parsed command line: the output streams, the flag
// set, and the flag values.
type invocation struct {
	stdout, stderr io.Writer
	flags          *flag.FlagSet

	plan           string
	opt            harness.Options // -quick, -seed, -set
	list           bool
	workers        int
	cpuprofile     string
	memprofile     string
	chaosRuns      int
	chaosIntensity float64
	every          float64
	dir, restore   string
	compactAt      int
	soakCycles     int
}

// usage reports a usage error: the message, the flag summary, exit 2.
func (c *invocation) usage(format string, a ...interface{}) int {
	fmt.Fprintf(c.stderr, "mdsim: "+format+"\n", a...)
	c.flags.Usage()
	return 2
}

// fail reports a run-time failure: exit 1.
func (c *invocation) fail(err error) int {
	fmt.Fprintln(c.stderr, "mdsim:", err)
	return 1
}

// settings is the repeatable -set flag; each value is vetted against the
// plan key table as it is read.
type settings []plan.Setting

func (s *settings) String() string { return fmt.Sprint(*s) }

func (s *settings) Set(v string) error {
	st, err := plan.ParseSetting(v)
	if err == nil {
		*s = append(*s, st)
	}
	return err
}

// parseArgs reads the command line. A nil invocation means the flag
// package has already reported: code is 0 for -h, 2 for a bad flag.
func parseArgs(args []string, stdout, stderr io.Writer) (c *invocation, code int) {
	fs := flag.NewFlagSet("mdsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c = &invocation{stdout: stdout, stderr: stderr, flags: fs}
	fs.StringVar(&c.plan, "plan", "", "what to run: an experiment or library plan from -list, a plan DSL file, or the group 'figures' or 'library' (default: the built-in 'default' plan)")
	fs.Var((*settings)(&c.opt.Set), "set", "override `key=value` on every run of the plan, after its matrix; repeatable (keys: README.md, or any bad key's error)")
	fs.BoolVar(&c.list, "list", false, "list what -plan accepts")
	fs.BoolVar(&c.opt.Quick, "quick", false, "reduced-scale experiments and plans")
	fs.Int64Var(&c.opt.Seed, "seed", 1, "simulation seed; also seeds the chaos budget and the soak schedule")
	fs.IntVar(&c.workers, "workers", 0, "sweep worker pool size (0 = GOMAXPROCS; shrunk so workers x shards fits the cores)")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	fs.IntVar(&c.chaosRuns, "chaos-runs", 0, "run a seeded chaos fuzz budget instead of a plan: this many generated fault schedules, each against every strategy, each run checked by simfsck")
	fs.Float64Var(&c.chaosIntensity, "chaos-intensity", 1, "chaos generator intensity (scales fault counts and magnitudes)")
	fs.Float64Var(&c.every, "checkpoint-every", 0, "run the default plan, made open loop with -set rate=R, on the endurance plane: churn the namespace over the full duration, quiescing and checkpointing at this cadence in simulated seconds (must exceed the quiesce drain)")
	fs.StringVar(&c.dir, "checkpoint-dir", "", "endurance: write checkpoint snapshots into this directory")
	fs.StringVar(&c.restore, "restore", "", "endurance: resume from this checkpoint snapshot instead of starting at t=0")
	fs.IntVar(&c.compactAt, "compact-at", 0, "endurance: tombstone count that triggers overlay compaction (0 = default, negative = never compact)")
	fs.IntVar(&c.soakCycles, "soak-cycles", 0, "endurance: the rolling chaos soak — this many crash/recover cycles over the run, simfsck at every checkpoint")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2
	}
	if fs.NArg() > 0 {
		return nil, c.usage("unexpected argument %q", fs.Arg(0))
	}
	return c, 0
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	c, code := parseArgs(args, stdout, stderr)
	if c == nil {
		return code
	}
	// Settle every question the command line can answer — what to run,
	// and whether each override lands on it — before any simulation work
	// starts; job is what is left to do.
	endurance := c.every != 0 || c.soakCycles > 0
	if !endurance && (c.dir != "" || c.restore != "" || c.compactAt != 0) {
		return c.usage("-checkpoint-dir/-restore/-compact-at need -checkpoint-every")
	}
	var job func() int
	switch {
	case c.list:
		job = func() int { list(stdout); return 0 }
	case c.chaosRuns > 0:
		opt := harness.ChaosOptions{Seed: c.opt.Seed, Schedules: c.chaosRuns, Intensity: c.chaosIntensity, Set: c.opt.Set}
		if c.plan != "" || endurance {
			return c.usage("-chaos-runs generates its own runs; drop -plan and the endurance flags")
		}
		if _, err := harness.ChaosConfig(opt, cluster.Strategies[0], ""); err != nil {
			return c.usage("%v", err)
		}
		job = func() int { return runChaos(c, opt) }
	case endurance || c.plan == "" || c.plan == "default":
		cfg, err := c.oneRun()
		if err != nil {
			return c.usage("%v", err)
		}
		job = func() int { return runSingle(c, cfg) }
		if endurance {
			job = func() int { return runEndure(c, cfg) }
		}
	default:
		targets, err := resolve(c.plan)
		for i := 0; err == nil && i < len(targets); i++ {
			err = targets[i].Check(c.opt)
		}
		if err != nil {
			return c.usage("%v", err)
		}
		job = func() int { return runTargets(c, targets) }
	}

	harness.SetSweepWorkers(c.workers)
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			return c.fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return c.fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if c.memprofile != "" {
		defer func() {
			if err := writeHeapProfile(c.memprofile); err != nil {
				code = max(code, c.fail(err))
			}
		}()
	}
	return job()
}

// runChaos runs the fuzz budget and prints its report.
func runChaos(c *invocation, opt harness.ChaosOptions) int {
	rep, err := harness.Chaos(opt)
	if err != nil {
		return c.fail(err)
	}
	fmt.Fprint(c.stdout, rep)
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// oneRun compiles the default plan — one cell — for the two modes that
// drive a single cluster by hand: its full report and the endurance
// plane.
func (c *invocation) oneRun() (cluster.Config, error) {
	if c.plan != "" && c.plan != "default" {
		return cluster.Config{}, fmt.Errorf("the endurance plane runs the default plan; shape it with -set, not -plan %s", c.plan)
	}
	cells, err := plan.Default().Compile(c.opt)
	if err != nil {
		return cluster.Config{}, err
	}
	if k := cells[0].Cfg.Shards; k > runtime.GOMAXPROCS(0) {
		fmt.Fprintf(c.stderr, "mdsim: warning: shards=%d exceeds %d cores; expect no speedup\n", k, runtime.GOMAXPROCS(0))
	}
	return cells[0].Cfg, nil
}

// runSingle is the default plan's report: one cluster built directly
// (not via harness.RunOne — a faulted run is drained and checked by
// simfsck afterwards, which needs the live cluster, and a single run
// gains nothing from the shared snapshot cache), printed with its
// response-time line, fabric table, deepest service queues, fault
// summary and simfsck verdict.
func runSingle(c *invocation, cfg cluster.Config) int {
	stdout := c.stdout
	start := time.Now()
	heapBase := heapBytes(cfg.OpenLoop != nil)
	cl, err := cluster.New(cfg)
	if err != nil {
		return c.fail(err)
	}
	base := chaos.Capture(cl)
	res := cl.Run()
	fmt.Fprintln(stdout, res)
	fmt.Fprintf(stdout, "latency: p50 %.3fms p99 %.3fms p999 %.3fms mean %.3fms over %d replies\n",
		res.LatencyP50*1000, res.LatencyP99*1000, res.LatencyP999*1000, res.MeanLatency*1000, cl.LatH.N())
	if res.OpenLoop {
		heapPerClient := float64(heapBytes(true)-heapBase) / float64(res.Clients)
		fmt.Fprintf(stdout, "open loop: %d clients, issued %d, completed %d\n",
			res.Clients, res.Issued, res.Completed)
		fmt.Fprintf(stdout, "memory: plane %.1f B/client structural, %.1f B/client heap delta (fs+cluster+plane)\n",
			float64(res.PopFootprint)/float64(res.Clients), heapPerClient)
		if cfg.Lease.Enabled || cfg.Lease.Fanout {
			fmt.Fprintf(stdout, "leases: %d grants, %d local hits, recalls %d sent / %d delivered / %d acked, %d fanouts, slab+registry %d B\n",
				res.LeaseGrants, res.LeaseHits, res.LeaseRecalls,
				res.LeaseRecalled, res.LeaseAcks, res.ReplicaFanouts, res.LeaseFootprint)
		}
		runtime.KeepAlive(cl)
	}
	fmt.Fprintf(stdout, "fabric (%s model): %d messages, %d bytes, max link queue %d\n",
		res.Net.Model, res.Net.Messages, res.Net.Bytes, res.Net.MaxQueueDepth)
	fmt.Fprintln(stdout, serviceQueues(cl.Nodes))
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

// serviceQueues names, for each kind of service centre, the deepest
// waiting line of the run and the (lowest-numbered) node it formed on:
// the saturated resource a latency tail is parked behind.
func serviceQueues(nodes []*mds.MDS) string {
	var depth, node [3]int
	for i, m := range nodes {
		cpu, readDisk, logDisk := m.MaxQueues()
		for k, d := range [3]int{cpu, readDisk, logDisk} {
			if d > depth[k] {
				depth[k], node[k] = d, i
			}
		}
	}
	return fmt.Sprintf("service queues: cpu max %d (mds%d), read disk max %d (mds%d), log disk max %d (mds%d)",
		depth[0], node[0], depth[1], node[1], depth[2], node[2])
}

// heapBytes returns live heap bytes after a forced GC (0 when not
// wanted, so closed-loop runs skip the GC pauses entirely).
func heapBytes(want bool) int64 {
	if !want {
		return 0
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
