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
// a failover timeline exercising the shared-storage takeover and
// log-driven cache warming of §2.1.2/§4.6, the open-loop and
// availability sweeps, and the paper's design choices ablated.
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
		{
			ID:    "ablations",
			Title: "Extension: the paper's design choices, ablated",
			Description: "Embedded inodes, prefetch position, redelegate-first, " +
				"directory hashing, the replication threshold, preemptive " +
				"replication and the shared OSD pool, each run at the paper's " +
				"setting and with the choice taken away.",
			Build: ablationsExt,
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
	cfg.Duration = 24 * sim.Second
	cfg.Warmup = 8 * sim.Second
	if opt.Quick {
		cfg.Duration = 12 * sim.Second
		cfg.Warmup = 4 * sim.Second
	}
	return cfg
}

// sciHashDirThreshold is the directory size past which the "+dirhash"
// variant (and the dir-hashing ablation) spreads a directory's entries.
const sciHashDirThreshold = 256

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
				cfg.HashDirThreshold = sciHashDirThreshold
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

// failoverConfig builds the failure/recovery timeline's run: node 0
// crashes on the fault schedule and recovers ten seconds later.
func failoverConfig(opt Options) cluster.Config {
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
	cfg.Faults = "crash@10s-20s:mds0"
	if opt.Quick {
		cfg.Duration = 18 * sim.Second
		cfg.Faults = "crash@6s-12s:mds0"
	}
	return cfg
}

// failoverExt is the failure/recovery timeline: cluster and victim
// throughput per second as a scheduled crash is detected by suspicion,
// the victim's subtrees are reassigned, and the node rejoins with a
// log-warmed cache.
func failoverExt(opt Options) (*plan.Plan, Renderer, error) {
	p := &plan.Plan{
		Name:  "failover",
		Tweak: func(cfg *cluster.Config, _ plan.Cell) { *cfg = failoverConfig(opt) },
	}
	return p, renderFailover, nil
}

// eventOn finds the first fault event on a node.
func eventOn(events []cluster.FaultEvent, node int) (cluster.FaultEvent, bool) {
	for _, ev := range events {
		if ev.Node == node {
			return ev, true
		}
	}
	return cluster.FaultEvent{}, false
}

// renderFailover reads the fault timeline back from the result, so the
// figure stays true under a -set faults= of the reader's own.
func renderFailover(w io.Writer, runs []PlanRun) error {
	res := runs[0].Res
	victim := 0
	if len(res.Failures) > 0 {
		victim = res.Failures[0].Node
	}
	fmt.Fprintf(w, "Extension: node %d", victim)
	if ev, ok := eventOn(res.Failures, victim); ok {
		fmt.Fprintf(w, " fails at t=%v", ev.At)
	}
	if ev, ok := eventOn(res.Downs, victim); ok {
		fmt.Fprintf(w, ", is confirmed down at t=%v", ev.At)
	}
	if ev, ok := eventOn(res.Recoveries, victim); ok {
		fmt.Fprintf(w, ", recovers at t=%v (cache warmed with %d log records)", ev.At, ev.Warmed)
	}
	fmt.Fprintln(w)
	tb := metrics.NewTable("t(s)", "cluster ops/s", "victim ops/s")
	for i := 0; i < res.RepliesPerNode[victim].Len(); i++ {
		tb.AddRow(int(res.Bucket.Seconds()*float64(i)),
			int(totalReplies(res, i)/res.Bucket.Seconds()),
			int(res.RepliesPerNode[victim].Sum(i)/res.Bucket.Seconds()))
	}
	if _, err := io.WriteString(w, tb.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "total client retries during the outage: %d (%d requests timed out)\n", res.Retries, res.TimedOut)
	return err
}
