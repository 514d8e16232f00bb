package harness

import (
	"fmt"
	"io"

	"dynmds/internal/cluster"
	"dynmds/internal/metrics"
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
			Build: texts(renderSci, "plan sci\nmatrix strategy=StaticSubtree,DynamicSubtree,DirHash,LazyHybrid,FileHash,DynamicSubtree dirhash-at=0,0,0,0,0,256\n"+sci),
		},
		{
			ID:    "failover",
			Title: "Extension: MDS failure and recovery",
			Description: "Cluster throughput over time as one node fails (its " +
				"subtrees are reassigned over shared storage) and later recovers " +
				"with a log-warmed cache.",
			Build: texts(renderFailover, failoverSrc),
		},
		{
			ID:    "clients",
			Title: "Extension: open-loop client-count sweep",
			Description: "Flyweight traffic plane scaled across population sizes " +
				"at a constant arrival budget: latency quantiles and structural " +
				"bytes per client as the population grows.",
			Build: texts(renderClients, clientsSrc),
		},
		{
			ID:    "avail",
			Title: "Extension: availability under fault injection",
			Description: "Per-strategy throughput dip, failure-detection and " +
				"recovery time when one of eight nodes crashes mid-run on a " +
				"deterministic fault schedule.",
			Build: texts(renderAvail, availSrc),
		},
		{
			ID:    "ablations",
			Title: "Extension: the paper's design choices, ablated",
			Description: "Embedded inodes, prefetch position, redelegate-first, " +
				"directory hashing, the replication threshold, preemptive " +
				"replication and the shared OSD pool, each run at the paper's " +
				"setting and with the choice taken away.",
			Build: texts(renderAblations, ablationPlans()...),
		},
	}
}

// sci is the scientific workload run: LLNL-style bursts in which all
// clients of a job open one file (N-to-1) or create in one directory
// (N-to-N). The extension sweeps every strategy, plus dynamic again
// with directory hashing past 256 entries (dirhash-at); the shared hot
// files and directories stress traffic control and oversized-directory
// distribution.
const sci = `quick 1
fs users=60 projects=12
cluster mds=6 cache=2500 log=2000
traffic clients=240 workload=scientific
warmup 8s
duration 24s
quick warmup 4s
quick duration 12s
`

func renderSci(w io.Writer, runs []PlanRun) error {
	fmt.Fprintln(w, "Extension: scientific workload (synchronised N-to-1 / N-to-N bursts)")
	tb := metrics.NewTable("strategy", "ops/s/mds", "hit", "fwd", "replications", "writes_absorbed")
	for _, r := range runs {
		variant := r.Cfg.Strategy
		if r.Cfg.HashDirThreshold > 0 {
			variant += "+dirhash"
		}
		tb.AddRow(variant, r.Res.AvgThroughput,
			fmt.Sprintf("%.3f", r.Res.HitRate),
			fmt.Sprintf("%.4f", r.Res.ForwardFrac),
			int(r.Res.Replications),
			int(r.Res.WritesAbsorbed))
	}
	_, err := io.WriteString(w, tb.String())
	return err
}

// failoverSrc is the failure/recovery timeline: node 0 crashes on the
// fault schedule and recovers ten seconds later (six at -quick); the
// renderer prints cluster and victim throughput per second as suspicion
// detects the crash, the victim's subtrees are reassigned, and the node
// rejoins with a log-warmed cache.
const failoverSrc = `plan failover
quick 1
fs users=150
cluster mds=6 cache=2500 log=2000 faults=crash@10s-20s:mds0
traffic clients=180 think=15ms retry=200ms
warmup 5s
duration 30s
quick cluster faults=crash@6s-12s:mds0
quick duration 18s
`

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
