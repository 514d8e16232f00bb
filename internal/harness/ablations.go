package harness

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"dynmds/internal/cluster"
	"dynmds/internal/metrics"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/plan"
	"dynmds/internal/sim"
)

// ablation is one design choice the paper argues for: a configuration
// from a builder a figure or sci already uses, run at the paper's
// setting and with the choice taken away, and the claims the paper
// rests on it.
type ablation struct {
	choice  string // the matrix value
	section string // where the paper argues it
	// config builds the run; paper says which side of the choice.
	config func(opt Options, paper bool) cluster.Config
	claims []claim
}

// claim is one row of the ablations table: a metric on which the
// paper's setting should beat the ablated one, and the verdict this
// simulator is known to give at -quick, which TestAblationClaims holds
// it to over seeds 1-3. A claim that deviates says why; it is a finding
// (EXPERIMENTS.md), never loosened into passing.
type claim struct {
	metric string
	value  func(r *PlanRun) float64
	prec   int  // decimals printed
	lower  bool // the paper's setting should come out lower, not higher
	// slack is how far the paper's side may fall short and still hold.
	// Zero for "more" and "fewer" claims — equal values support nothing;
	// "at no lower throughput" tolerates seed noise.
	slack float64
	// deviates is "" when the claim holds on every seed; otherwise why
	// it fails on at least one.
	deviates string
}

// noEmbed is a static subtree partition with embedded-inode directory
// storage switched off: the same partition, per-inode I/O (§4.5).
type noEmbed struct{ *partition.StaticSubtree }

func (noEmbed) DirGranular() bool { return false }

const (
	settingPaper   = "paper"
	settingAblated = "ablated"
)

var (
	opsPerMDS = claim{metric: "ops/s/mds",
		value: func(r *PlanRun) float64 { return r.Res.AvgThroughput }}
	hitRate = claim{metric: "hit rate", prec: 3,
		value: func(r *PlanRun) float64 { return r.Res.HitRate }}
)

// deviating returns the claim recorded as not holding here, and why.
func (c claim) deviating(why string) claim {
	c.deviates = why
	return c
}

// repliesPerSec is the cluster reply rate over [from, to).
func repliesPerSec(r *cluster.Result, from, to sim.Time) float64 {
	var sum float64
	for i := int(from / r.Bucket); i < int(to/r.Bucket); i++ {
		sum += totalReplies(r, i)
	}
	return sum / (to - from).Seconds()
}

func replyRate(name string, from, to sim.Time) claim {
	return claim{metric: name, value: func(r *PlanRun) float64 { return repliesPerSec(r.Res, from, to) }}
}

// postShiftOps is per-MDS throughput over the final third of a shift
// run, after the balancer has had time to settle.
func postShiftOps(r *PlanRun) float64 {
	d := r.Cfg.Duration
	return repliesPerSec(r.Res, d-d/3, d) / float64(r.Cfg.NumMDS)
}

// poolAblation contrasts a shared object pool of the given size with
// node-local metadata disks (§2.1.3) on the Figure 2 cell.
func poolAblation(osds int) ablation {
	return ablation{"osd-pool-" + strconv.Itoa(osds), "2.1.3",
		func(opt Options, paper bool) cluster.Config {
			cfg := scaledConfig(opt, cluster.StratDynamic, 8)
			if paper {
				cfg.OSDs = osds
			}
			return cfg
		},
		[]claim{opsPerMDS}}
}

// ablations is the table of design choices, in the paper's order of
// argument.
var ablations = []ablation{
	{"embedded-inodes", "4.5",
		func(opt Options, paper bool) cluster.Config {
			cfg := scaledConfig(opt, cluster.StratStatic, 8)
			if !paper {
				depth := cfg.PartitionDepth
				cfg.MakeStrategy = func(n int, tree *namespace.Tree) partition.Strategy {
					return noEmbed{partition.NewStaticSubtree(n, tree, depth)}
				}
			}
			return cfg
		},
		[]claim{opsPerMDS, hitRate}},
	{"prefetch-near-tail", "4.5",
		func(opt Options, paper bool) cluster.Config {
			cfg := scaledConfig(opt, cluster.StratStatic, 8)
			cfg.MDS.PrefetchHot = !paper
			return cfg
		},
		[]claim{
			opsPerMDS.deviating("prefetched siblings are nearly always the next thing read under this workload's directory locality, so the hot end keeps them and near-tail evicts them first"),
			hitRate.deviating("as ops/s/mds: near-tail insertion gives up hits the hot end keeps"),
		}},
	{"redelegate-first", "4.3",
		func(opt Options, paper bool) cluster.Config {
			cfg := shiftConfig(opt, cluster.StratDynamic)
			cfg.Balancer.NoRedelegateFirst = !paper // shiftConfig's own copy
			return cfg
		},
		[]claim{
			{metric: "delegations", lower: true,
				value:    func(r *PlanRun) float64 { return float64(r.Res.Delegations) },
				deviates: "under the Figure 5 shift no busy node holds an imported tree of a size worth handing on, so the pass never fires and the two runs are identical"},
			{metric: "post-shift ops/s/mds", value: postShiftOps, slack: 0.03},
		}},
	{"dir-hashing", "4.3",
		func(opt Options, paper bool) cluster.Config {
			cfg := sciConfig(opt, cluster.StratDynamic)
			if paper {
				cfg.HashDirThreshold = sciHashDirThreshold
			}
			return cfg
		},
		[]claim{opsPerMDS.deviating("within 4% either way depending on the seed: hashing spreads the create bursts but every client then crosses nodes for the one directory")}},
	{"replication-threshold", "4.4",
		func(opt Options, paper bool) cluster.Config {
			cfg := flashConfig(opt, true)
			if !paper { // a threshold no crowd reaches
				tc := *cfg.Traffic
				tc.ReplicateThreshold, tc.UnreplicateThreshold = 1e9, 1e8
				cfg.Traffic = &tc
			}
			return cfg
		},
		[]claim{replyRate("replies/s, t=9.5-10s", 9500*sim.Millisecond, 10*sim.Second)}},
	{"preemptive-replication", "5.4",
		func(opt Options, paper bool) cluster.Config {
			cfg := flashConfig(opt, true)
			if paper {
				tc := *cfg.Traffic
				tc.PreemptiveThreshold = 50
				cfg.Traffic = &tc
			}
			return cfg
		},
		[]claim{replyRate("replies/s, t=8.1-8.4s", 8100*sim.Millisecond, 8400*sim.Millisecond)}},
	poolAblation(16),
	poolAblation(48),
}

// holds says whether the paper's value beats the ablated one on the
// claim's terms.
func (c claim) holds(paper, ablated float64) bool {
	if c.lower {
		return paper < ablated*(1+c.slack)
	}
	return paper > ablated*(1-c.slack)
}

// ablationsExt runs every design choice at the paper's setting and at
// the ablated one and prints, per claim, both values, their ratio and
// whether the paper's argument holds in this simulator.
func ablationsExt(opt Options) (*plan.Plan, Renderer, error) {
	choices := make([]string, len(ablations))
	for i, a := range ablations {
		choices[i] = a.choice
	}
	p := &plan.Plan{
		Name: "ablations",
		Matrix: []plan.Axis{
			{Key: "choice", Values: choices},
			{Key: "setting", Values: []string{settingPaper, settingAblated}},
		},
		Tweak: func(cfg *cluster.Config, cell plan.Cell) {
			a := ablations[slices.Index(choices, cell["choice"])]
			*cfg = a.config(opt, cell["setting"] == settingPaper)
		},
	}
	return p, func(w io.Writer, runs []PlanRun) error {
		fmt.Fprintln(w, "Extension: the paper's design choices, each at the paper's setting and ablated")
		tb := metrics.NewTable("choice", "§", "metric", settingPaper, settingAblated, "ratio", "verdict")
		for i, a := range ablations {
			paper, ablated := &runs[2*i], &runs[2*i+1] // matrix order: setting is the inner axis
			for _, c := range a.claims {
				pv, av := c.value(paper), c.value(ablated)
				verdict := "does not hold here"
				if c.holds(pv, av) {
					verdict = "holds"
				}
				tb.AddRow(a.choice, a.section, c.metric,
					strconv.FormatFloat(pv, 'f', c.prec, 64),
					strconv.FormatFloat(av, 'f', c.prec, 64),
					fmt.Sprintf("%.3f", pv/av), verdict)
			}
		}
		_, err := io.WriteString(w, tb.String())
		return err
	}, nil
}
