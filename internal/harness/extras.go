package harness

import (
	"fmt"
	"io"
	"strings"

	"dynmds/internal/cluster"
	"dynmds/internal/metrics"
	"dynmds/internal/plan"
	"dynmds/internal/sim"
)

// Extras returns experiments beyond the paper's figures: the
// scientific-computing workload the paper describes but does not plot,
// and a failover timeline exercising the shared-storage takeover and
// log-driven cache warming of §2.1.2/§4.6.
func Extras() []Experiment {
	return []Experiment{
		{
			ID:    "sci",
			Title: "Extension: scientific-computing workload",
			Description: "Per-strategy throughput under LLNL-style burst phases: " +
				"all clients of a job open the same file (N-to-1) or create in " +
				"the same directory (N-to-N).",
			Build: sciExt,
		},
		{
			ID:    "failover",
			Title: "Extension: MDS failure and recovery",
			Description: "Cluster throughput over time as one node fails (its " +
				"subtrees are reassigned over shared storage) and later recovers " +
				"with a log-warmed cache.",
			Build: failoverExt,
		},
		{
			ID:    "clients",
			Title: "Extension: open-loop client-count sweep",
			Description: "Flyweight traffic plane scaled across population sizes " +
				"at a constant arrival budget: latency quantiles and structural " +
				"bytes per client as the population grows.",
			Build: clientsExt,
		},
		{
			ID:    "avail",
			Title: "Extension: availability under fault injection",
			Description: "Per-strategy throughput dip, failure-detection and " +
				"recovery time when one of eight nodes crashes mid-run on a " +
				"deterministic fault schedule.",
			Build: availExt,
		},
	}
}

// sciConfig builds the scientific workload run.
func sciConfig(opt Options, strategy string) cluster.Config {
	cfg := cluster.Default()
	cfg.Seed = opt.Seed
	cfg.Strategy = strategy
	cfg.NumMDS = 6
	cfg.ClientsPerMDS = 40
	cfg.FS.Users = 60
	cfg.FS.Projects = 12
	cfg.MDS.CacheCapacity = 2500
	cfg.Workload.Kind = cluster.WorkScientific
	cfg.Workload.PhaseLength = 4 * sim.Second
	cfg.Workload.BurstFraction = 0.5
	cfg.Duration = 24 * sim.Second
	cfg.Warmup = 8 * sim.Second
	if opt.Quick {
		cfg.Duration = 12 * sim.Second
		cfg.Warmup = 4 * sim.Second
	}
	return cfg
}

// sciExt compares strategies under the scientific workload; the shared
// hot files and directories stress traffic control and (for the
// dynamic strategy with directory hashing enabled) oversized-directory
// distribution.
func sciExt(opt Options) (*plan.Plan, Renderer, error) {
	// Every strategy, plus dynamic again with directory hashing of huge
	// shared dirs.
	variants := append(append([]string(nil), cluster.Strategies...),
		cluster.StratDynamic+"+dirhash")
	p := &plan.Plan{
		Name: "sci",
		Matrix: []plan.Axis{
			{Key: "variant", Values: variants},
		},
		Tweak: func(cfg *cluster.Config, cell plan.Cell) {
			v := cell["variant"]
			strategy, hashed := strings.CutSuffix(v, "+dirhash")
			*cfg = sciConfig(opt, strategy)
			if hashed {
				cfg.HashDirThreshold = 256
			}
		},
	}
	return p, func(w io.Writer, runs []PlanRun) error {
		fmt.Fprintln(w, "Extension: scientific workload (synchronised N-to-1 / N-to-N bursts)")
		tb := metrics.NewTable("strategy", "ops/s/mds", "hit", "fwd", "replications", "writes_absorbed")
		for _, r := range runs {
			tb.AddRow(r.Cell["variant"], r.Res.AvgThroughput,
				fmt.Sprintf("%.3f", r.Res.HitRate),
				fmt.Sprintf("%.4f", r.Res.ForwardFrac),
				int(r.Res.Replications),
				int(r.Res.WritesAbsorbed))
		}
		_, err := io.WriteString(w, tb.String())
		return err
	}, nil
}

// failoverExt is the failure/recovery timeline, the one experiment that
// is not a plan: it fails and recovers a node by hand on the live
// cluster and reads the clients' retry counters afterwards.
func failoverExt(opt Options) (*plan.Plan, Renderer, error) {
	if len(opt.Set) > 0 {
		return nil, nil, fmt.Errorf("failover is a bespoke experiment, not a plan: it takes no -set")
	}
	return nil, func(w io.Writer, _ []PlanRun) error { return runFailover(w, opt) }, nil
}

func runFailover(w io.Writer, opt Options) error {
	cfg := cluster.Default()
	cfg.Seed = opt.Seed
	cfg.Strategy = cluster.StratDynamic
	cfg.NumMDS = 6
	cfg.ClientsPerMDS = 30
	cfg.FS.Users = 150
	cfg.MDS.CacheCapacity = 2500
	cfg.Client.ThinkMean = 15 * sim.Millisecond
	cfg.Client.RetryTimeout = 200 * sim.Millisecond
	cfg.Duration = 30 * sim.Second
	cfg.Warmup = 5 * sim.Second
	failAt, recoverAt := 10*sim.Second, 20*sim.Second
	if opt.Quick {
		cfg.Duration = 18 * sim.Second
		failAt, recoverAt = 6*sim.Second, 12*sim.Second
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	const victim = 0
	var warmed int
	cl.Eng.At(failAt, func() { _ = cl.FailNode(victim) })
	cl.Eng.At(recoverAt, func() { warmed, _ = cl.RecoverNode(victim) })
	res := cl.Run()

	fmt.Fprintf(w, "Extension: node %d fails at t=%v, recovers at t=%v (cache warmed with %d log records)\n",
		victim, failAt, recoverAt, warmed)
	tb := metrics.NewTable("t(s)", "cluster ops/s", "victim ops/s")
	var retries uint64
	for _, c := range cl.Clients {
		retries += c.Stats.Retries
	}
	buckets := res.RepliesPerNode[0].Len()
	for i := 0; i < buckets; i++ {
		var total float64
		for _, s := range res.RepliesPerNode {
			total += s.Sum(i)
		}
		tb.AddRow(int(res.Bucket.Seconds()*float64(i)),
			int(total/res.Bucket.Seconds()),
			int(res.RepliesPerNode[victim].Sum(i)/res.Bucket.Seconds()))
	}
	if _, err := io.WriteString(w, tb.String()); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "total client retries during the outage: %d\n", retries)
	return err
}
