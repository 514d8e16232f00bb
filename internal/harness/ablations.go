package harness

import (
	"fmt"
	"io"
	"strconv"

	"dynmds/internal/cluster"
	"dynmds/internal/metrics"
	"dynmds/internal/sim"
)

// ablation is one design choice the paper argues for, and the claims
// the paper rests on it. Its plan is the run of a figure or of sci that
// exercises the choice, with a two-cell matrix: the paper's setting,
// then the choice taken away.
type ablation struct {
	choice  string // the plan's name
	section string // where the paper argues it
	src     string // the plan text, less its plan line
	claims  []claim
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

// ablations is the table of design choices, in the paper's order of
// argument.
var ablations = []ablation{
	{"embedded-inodes", "4.5", "cluster mds=8 strategy=StaticSubtree cache=2500\nmatrix embed=on,off\n" + cell8,
		[]claim{opsPerMDS, hitRate}},
	{"prefetch-near-tail", "4.5", "cluster mds=8 strategy=StaticSubtree cache=2500\nmatrix prefetch=near-tail,hot\n" + cell8,
		[]claim{
			opsPerMDS.deviating("prefetched siblings are nearly always the next thing read under this workload's directory locality, so the hot end keeps them and near-tail evicts them first"),
			hitRate.deviating("as ops/s/mds: near-tail insertion gives up hits the hot end keeps"),
		}},
	{"redelegate-first", "4.3", "matrix redelegate-first=on,off\n" + shift,
		[]claim{
			{metric: "delegations", lower: true,
				value:    func(r *PlanRun) float64 { return float64(r.Res.Delegations) },
				deviates: "under the Figure 5 shift no busy node holds an imported tree of a size worth handing on, so the pass never fires and the two runs are identical"},
			{metric: "post-shift ops/s/mds", value: postShiftOps, slack: 0.03},
		}},
	{"dir-hashing", "4.3", "matrix dirhash-at=256,0\n" + sci,
		[]claim{opsPerMDS.deviating("within 4% either way depending on the seed: hashing spreads the create bursts but every client then crosses nodes for the one directory")}},
	// A threshold no crowd reaches.
	{"replication-threshold", "4.4", "matrix replicate-at=300,1e9\n" + flash,
		[]claim{replyRate("replies/s, t=9.5-10s", 9500*sim.Millisecond, 10*sim.Second)}},
	{"preemptive-replication", "5.4", "matrix preempt-at=50,0\n" + flash,
		[]claim{replyRate("replies/s, t=8.1-8.4s", 8100*sim.Millisecond, 8400*sim.Millisecond)}},
	// A shared object pool against node-local metadata disks (§2.1.3).
	{"osd-pool-16", "2.1.3", "cluster mds=8 cache=2500\nmatrix osds=16,0\n" + cell8, []claim{opsPerMDS}},
	{"osd-pool-48", "2.1.3", "cluster mds=8 cache=2500\nmatrix osds=48,0\n" + cell8, []claim{opsPerMDS}},
}

// holds says whether the paper's value beats the ablated one on the
// claim's terms.
func (c claim) holds(paper, ablated float64) bool {
	if c.lower {
		return paper < ablated*(1+c.slack)
	}
	return paper > ablated*(1-c.slack)
}

// ablationPlans returns each choice's plan text, in table order.
func ablationPlans() []string {
	srcs := make([]string, len(ablations))
	for i, a := range ablations {
		srcs[i] = "plan " + a.choice + "\n" + a.src
	}
	return srcs
}

// renderAblations prints, per claim, the values at the paper's setting
// and ablated, their ratio and whether the paper's argument holds in
// this simulator.
func renderAblations(w io.Writer, runs []PlanRun) error {
	fmt.Fprintln(w, "Extension: the paper's design choices, each at the paper's setting and ablated")
	tb := metrics.NewTable("choice", "§", "metric", "paper", "ablated", "ratio", "verdict")
	for i, a := range ablations {
		paper, ablated := &runs[2*i], &runs[2*i+1]
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
}
