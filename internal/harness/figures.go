package harness

import (
	"fmt"
	"io"
	"strconv"

	"dynmds/internal/cluster"
	"dynmds/internal/metrics"
	"dynmds/internal/plan"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// The figures are plan texts. Each figure's runs are its plan's cells
// in matrix order (first axis outermost), and its renderer prints the
// figure's table from them. Full and reduced scale differ by more than
// one factor, so every experiment's plan says "quick 1" and spells its
// -quick scale out in quick lines.

// Figures 2 and 3 (§5.3): MDS memory is fixed while the file system and
// the client base scale with the cluster — per MDS, 25 homes, 2 project
// trees and 60 closed-loop clients (30 at -quick).
const (
	fig2Src = `plan fig2
matrix mds=5,10,15,20,25,30,40,50 users=125,250,375,500,625,750,1000,1250 projects=10,20,30,40,50,60,80,100 clients=300,600,900,1200,1500,1800,2400,3000
` + scaling
	fig3Src = `plan fig3
matrix mds=5,10,15,20,25,30 users=125,250,375,500,625,750 projects=10,20,30,40,50,60 clients=300,600,900,1200,1500,1800
` + scaling
	scaling = `quick 1
cluster cache=2500
matrix strategy=StaticSubtree,DynamicSubtree,DirHash,LazyHybrid,FileHash
warmup 10s
duration 30s
quick matrix mds=4,8,16 users=100,200,400 projects=8,16,32 clients=120,240,480
quick warmup 4s
quick duration 10s
`
)

// cell8 is the Figure 2 cell at eight nodes, less its cluster line:
// Figure 4 sweeps its cache, and four ablations vary one choice on it.
const cell8 = `quick 1
fs users=200 projects=16
traffic clients=480
warmup 10s
duration 30s
quick traffic clients=240
quick warmup 4s
quick duration 10s
`

const fig4Src = `plan fig4
cluster mds=8
matrix strategy=StaticSubtree,DynamicSubtree,DirHash,LazyHybrid,FileHash
` + cell8

// shift is the Figures 5/6 run (§5.3.2): half the clients move at
// shift-at, balance rounds come every 2 s so adaptation shows on the
// plot, and a 512-way location cache forces the rediscovery Figure 6
// measures.
const shift = `quick 1
fs users=150
cluster mds=6 cache=2500 log=2000 balance=2s
traffic clients=180 think=15ms ways=512 workload=shift shift-at=25s
warmup 10s
duration 80s
quick traffic shift-at=8s
quick warmup 4s
quick duration 24s
`

// flash is the Figure 7 crowd: 10,000 clients (2,000 at -quick) on one
// file, with the balancer off to isolate traffic control.
const flash = `quick 1
fs users=100
cluster mds=8 cache=4000 log=2000 bucket=20ms balance=off
traffic clients=10000 think=20ms workload=flashcrowd
warmup 4s
duration 10s
quick traffic clients=2000
`

// texts is an experiment's Build over fixed plan texts.
func texts(render Renderer, srcs ...string) func(Options) ([]*plan.Plan, Renderer, error) {
	return func(Options) ([]*plan.Plan, Renderer, error) {
		ps := make([]*plan.Plan, len(srcs))
		for i, src := range srcs {
			p, err := plan.Parse(src)
			if err != nil {
				return nil, nil, err
			}
			ps[i] = p
		}
		return ps, render, nil
	}
}

// writeStrategyGrid renders the table the scaling figures share: one
// row per value of the plan's outer axis, labelled by row, one column
// per strategy (the inner axis), runs in matrix (row-major) order.
func writeStrategyGrid(w io.Writer, header string, runs []PlanRun, row func(i int, first *PlanRun) any, val func(*cluster.Result) any) error {
	tb := metrics.NewTable(append([]string{header}, cluster.Strategies...)...)
	for i, n := 0, len(cluster.Strategies); len(runs) >= n; i, runs = i+1, runs[n:] {
		cells := []any{row(i, &runs[0])}
		for _, r := range runs[:n] {
			cells = append(cells, val(r.Res))
		}
		tb.AddRow(cells...)
	}
	_, err := io.WriteString(w, tb.String())
	return err
}

func mdsRow(_ int, r *PlanRun) any { return r.Cell["mds"] }

// renderFig2 prints Figure 2: average per-MDS throughput vs cluster
// size for all five strategies under the general-purpose workload.
func renderFig2(w io.Writer, runs []PlanRun) error {
	fmt.Fprintln(w, "Figure 2: average MDS throughput (ops/sec) vs cluster size")
	return writeStrategyGrid(w, "mds", runs, mdsRow,
		func(r *cluster.Result) any { return r.AvgThroughput })
}

// renderFig3 prints Figure 3: percentage of cache consumed by prefix
// inodes vs cluster size (the paper plots four strategies; Lazy Hybrid
// caches no prefixes by construction and is omitted there, but we print
// it for completeness).
func renderFig3(w io.Writer, runs []PlanRun) error {
	fmt.Fprintln(w, "Figure 3: cache consumed by prefix inodes (%) vs cluster size")
	return writeStrategyGrid(w, "mds", runs, mdsRow,
		func(r *cluster.Result) any { return 100 * r.PrefixFrac })
}

// fig4 regenerates Figure 4: cache hit rate as a function of cache size
// expressed as a fraction of total metadata size, at a fixed cluster
// size. Only generation knows that size, so the cache axis is computed
// here and put outermost.
func fig4(opt Options) ([]*plan.Plan, Renderer, error) {
	fractions := []float64{0.025, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6}
	if opt.Quick {
		fractions = []float64{0.05, 0.2, 0.6}
	}
	p, err := plan.Parse(fig4Src)
	if err != nil {
		return nil, nil, err
	}
	// Generating the namespace primes the snapshot cache, so the sweep
	// reuses the same frozen base instead of regenerating per run.
	cells, err := p.Compile(opt)
	if err != nil {
		return nil, nil, err
	}
	n := cells[0].Cfg.NumMDS
	totalInodes, err := namespaceSize(cells[0].Cfg)
	if err != nil {
		return nil, nil, err
	}
	caches := make([]string, len(fractions))
	for i, f := range fractions {
		caches[i] = strconv.Itoa(max(64, int(f*float64(totalInodes)/float64(n))))
	}
	p.Matrix = append([]plan.Axis{{{Key: "cache", Values: caches}}}, p.Matrix...)
	return []*plan.Plan{p}, func(w io.Writer, runs []PlanRun) error {
		fmt.Fprintf(w, "Figure 4: cache hit rate vs cache size fraction (cluster of %d, fs=%d inodes)\n", n, totalInodes)
		return writeStrategyGrid(w, "cache_frac", runs,
			func(i int, _ *PlanRun) any { return fmt.Sprintf("%.3f", fractions[i]) },
			func(r *cluster.Result) any { return fmt.Sprintf("%.3f", r.HitRate) })
	}, nil
}

// renderFig5 prints Figure 5: the range (min..max) and average of MDS
// throughput over time under the shifting workload, dynamic vs static.
func renderFig5(w io.Writer, runs []PlanRun) error {
	dyn, sta := runs[0].Res, runs[1].Res
	fmt.Fprintln(w, "Figure 5: MDS throughput (ops/sec) over time under a workload shift")
	fmt.Fprintf(w, "shift at t=%v; dynamic migrations=%d\n",
		runs[0].Cfg.Workload.ShiftTime, dyn.Migrations)
	tb := metrics.NewTable("t(s)",
		"dyn_min", "dyn_avg", "dyn_max",
		"sta_min", "sta_avg", "sta_max")
	buckets := dyn.RepliesPerNode[0].Len()
	if b := sta.RepliesPerNode[0].Len(); b > buckets {
		buckets = b
	}
	var dynAvg, staAvg []float64
	for i := 0; i < buckets; i++ {
		dmin, davg, dmax := nodeRange(dyn, i)
		smin, savg, smax := nodeRange(sta, i)
		tb.AddRow(int(dyn.Bucket.Seconds()*float64(i)), dmin, davg, dmax, smin, savg, smax)
		dynAvg = append(dynAvg, davg)
		staAvg = append(staAvg, savg)
	}
	if _, err := io.WriteString(w, tb.String()); err != nil {
		return err
	}
	fmt.Fprintf(w, "dynamic avg %s\nstatic  avg %s\n",
		metrics.Sparkline(dynAvg), metrics.Sparkline(staAvg))
	return nil
}

// nodeRange computes min/avg/max per-node throughput in bucket i.
func nodeRange(r *cluster.Result, i int) (min, avg, max float64) {
	var w metrics.Welford
	for _, s := range r.RepliesPerNode {
		w.Add(s.Sum(i) / r.Bucket.Seconds())
	}
	return w.Min(), w.Mean(), w.Max()
}

// renderFig6 prints Figure 6: the fraction of client requests forwarded
// over time under the same shift.
func renderFig6(w io.Writer, runs []PlanRun) error {
	dyn, sta := runs[0].Res, runs[1].Res
	fmt.Fprintln(w, "Figure 6: fraction of requests forwarded over time under a workload shift")
	tb := metrics.NewTable("t(s)", "dynamic", "static")
	buckets := dyn.Forwards.Len()
	if b := sta.Forwards.Len(); b > buckets {
		buckets = b
	}
	var dfrac, sfrac []float64
	for i := 0; i < buckets; i++ {
		tb.AddRow(int(dyn.Bucket.Seconds()*float64(i)),
			fmt.Sprintf("%.4f", fracAt(dyn, i)),
			fmt.Sprintf("%.4f", fracAt(sta, i)))
		dfrac = append(dfrac, fracAt(dyn, i))
		sfrac = append(sfrac, fracAt(sta, i))
	}
	if _, err := io.WriteString(w, tb.String()); err != nil {
		return err
	}
	fmt.Fprintf(w, "dynamic %s\nstatic  %s\n",
		metrics.Sparkline(dfrac), metrics.Sparkline(sfrac))
	return nil
}

func fracAt(r *cluster.Result, i int) float64 {
	arr := r.Arrivals.Sum(i)
	if arr == 0 {
		return 0
	}
	return r.Forwards.Sum(i) / arr
}

// renderFig7 prints Figure 7: cluster-wide replies and forwards per
// second through the flash crowd, without and with traffic control.
func renderFig7(w io.Writer, runs []PlanRun) error {
	off, on := runs[0].Res, runs[1].Res
	fmt.Fprintf(w, "Figure 7: flash crowd at t=%s; requests/sec, traffic control off vs on\n", sim.FormatTime(workload.FlashTime))
	tb := metrics.NewTable("t(s)",
		"off_replies", "off_forwards",
		"on_replies", "on_forwards")
	// From just before the crowd to the end of the run.
	start := int((workload.FlashTime - 200*sim.Millisecond) / off.Bucket)
	end := int(runs[0].Cfg.Duration / off.Bucket)
	var offR, onR []float64
	for i := start; i < end; i++ {
		tb.AddRow(fmt.Sprintf("%.2f", off.Bucket.Seconds()*float64(i)),
			int(totalReplies(off, i)/off.Bucket.Seconds()),
			int(off.Forwards.Sum(i)/off.Bucket.Seconds()),
			int(totalReplies(on, i)/on.Bucket.Seconds()),
			int(on.Forwards.Sum(i)/on.Bucket.Seconds()))
		offR = append(offR, totalReplies(off, i))
		onR = append(onR, totalReplies(on, i))
	}
	if _, err := io.WriteString(w, tb.String()); err != nil {
		return err
	}
	fmt.Fprintf(w, "replies, no traffic control %s\nreplies, traffic control    %s\n",
		metrics.Sparkline(offR), metrics.Sparkline(onR))
	return nil
}

func totalReplies(r *cluster.Result, i int) float64 {
	var sum float64
	for _, s := range r.RepliesPerNode {
		sum += s.Sum(i)
	}
	return sum
}
