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

// The figures are plan definitions: each builds a plan.Plan whose
// matrix mirrors the old hand-rolled spec loops (first axis outermost,
// so runs come back in the same order) and whose Tweak overwrites the
// compiled config with the figure's bespoke one — which keeps the
// goldens bit-identical to the pre-plan harness — and returns it with
// the renderer that prints the figure's table from the runs.

// scaledConfig builds the Figure 2/3 scaling configuration: MDS memory
// is fixed while file system size and client base scale with the
// cluster, exactly as §5.3 describes.
func scaledConfig(opt Options, strategy string, n int) cluster.Config {
	cfg := cluster.Default()
	cfg.Seed = opt.Seed
	cfg.Strategy = strategy
	cfg.NumMDS = n
	cfg.ClientsPerMDS = 60
	cfg.FS.Users = 25 * n
	cfg.FS.Projects = 2 * n
	cfg.MDS.CacheCapacity = 2500
	cfg.MDS.Storage.LogCapacity = 2500
	cfg.Duration = 30 * sim.Second
	cfg.Warmup = 10 * sim.Second
	if opt.Quick {
		cfg.ClientsPerMDS = 30
		cfg.Duration = 10 * sim.Second
		cfg.Warmup = 4 * sim.Second
	}
	return cfg
}

func sizesFor(opt Options, max int) []int {
	if opt.Quick {
		out := []int{4, 8, 16}
		var kept []int
		for _, n := range out {
			if n <= max {
				kept = append(kept, n)
			}
		}
		return kept
	}
	var out []int
	for n := 5; n <= max && n <= 30; n += 5 {
		out = append(out, n)
	}
	for n := 40; n <= max; n += 10 {
		out = append(out, n)
	}
	return out
}

// scalingPlan is the Figure 2/3 shape: cluster sizes × all strategies,
// each cell the scaled configuration.
func scalingPlan(name string, opt Options, sizes []int) *plan.Plan {
	return &plan.Plan{
		Name: name,
		Matrix: []plan.Axis{
			{Key: "mds", Values: intStrings(sizes)},
			{Key: "strategy", Values: cluster.Strategies},
		},
		Tweak: func(cfg *cluster.Config, cell plan.Cell) {
			*cfg = scaledConfig(opt, cell["strategy"], atoi(cell["mds"]))
		},
	}
}

// writeStrategyGrid renders the table the scaling figures share: one
// row per value of the plan's outer axis, one column per strategy (the
// inner axis), runs in matrix (row-major) order.
func writeStrategyGrid(w io.Writer, rowAxis string, runs []PlanRun, val func(*cluster.Result) interface{}) error {
	tb := metrics.NewTable(append([]string{rowAxis}, cluster.Strategies...)...)
	for n := len(cluster.Strategies); len(runs) >= n; runs = runs[n:] {
		row := []interface{}{runs[0].Cell[rowAxis]}
		for _, r := range runs[:n] {
			row = append(row, val(r.Res))
		}
		tb.AddRow(row...)
	}
	_, err := io.WriteString(w, tb.String())
	return err
}

// fig2 regenerates Figure 2: average per-MDS throughput vs cluster size
// for all five strategies under the general-purpose workload.
func fig2(opt Options) (*plan.Plan, Renderer, error) {
	return scalingPlan("fig2", opt, sizesFor(opt, 50)), func(w io.Writer, runs []PlanRun) error {
		fmt.Fprintln(w, "Figure 2: average MDS throughput (ops/sec) vs cluster size")
		return writeStrategyGrid(w, "mds", runs,
			func(r *cluster.Result) interface{} { return r.AvgThroughput })
	}, nil
}

// fig3 regenerates Figure 3: percentage of cache consumed by prefix
// inodes vs cluster size (the paper plots four strategies; Lazy Hybrid
// caches no prefixes by construction and is omitted there, but we print
// it for completeness).
func fig3(opt Options) (*plan.Plan, Renderer, error) {
	return scalingPlan("fig3", opt, sizesFor(opt, 30)), func(w io.Writer, runs []PlanRun) error {
		fmt.Fprintln(w, "Figure 3: cache consumed by prefix inodes (%) vs cluster size")
		return writeStrategyGrid(w, "mds", runs,
			func(r *cluster.Result) interface{} { return 100 * r.PrefixFrac })
	}, nil
}

// fig4 regenerates Figure 4: cache hit rate as a function of cache size
// expressed as a fraction of total metadata size, at a fixed cluster
// size.
func fig4(opt Options) (*plan.Plan, Renderer, error) {
	const n = 8
	fractions := []float64{0.025, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6}
	if opt.Quick {
		fractions = []float64{0.05, 0.2, 0.6}
	}
	// Estimate total metadata size from one generation. This primes the
	// snapshot cache, so the sweep below reuses the same frozen base
	// instead of regenerating per run.
	base := scaledConfig(opt, cluster.StratStatic, n)
	totalInodes, err := namespaceSize(base)
	if err != nil {
		return nil, nil, err
	}

	fracs := make([]string, len(fractions))
	for i, f := range fractions {
		fracs[i] = fmt.Sprintf("%.3f", f)
	}
	p := &plan.Plan{
		Name: "fig4",
		Matrix: []plan.Axis{
			{Key: "cache_frac", Values: fracs},
			{Key: "strategy", Values: cluster.Strategies},
		},
		Tweak: func(cfg *cluster.Config, cell plan.Cell) {
			f, _ := strconv.ParseFloat(cell["cache_frac"], 64)
			*cfg = scaledConfig(opt, cell["strategy"], n)
			perMDS := int(f * float64(totalInodes) / float64(n))
			if perMDS < 64 {
				perMDS = 64
			}
			cfg.MDS.CacheCapacity = perMDS
			cfg.MDS.Storage.LogCapacity = perMDS
		},
	}
	return p, func(w io.Writer, runs []PlanRun) error {
		fmt.Fprintf(w, "Figure 4: cache hit rate vs cache size fraction (cluster of %d, fs=%d inodes)\n", n, totalInodes)
		return writeStrategyGrid(w, "cache_frac", runs,
			func(r *cluster.Result) interface{} { return fmt.Sprintf("%.3f", r.HitRate) })
	}, nil
}

// shiftConfig builds the Figure 5/6 workload-evolution run.
func shiftConfig(opt Options, strategy string) cluster.Config {
	cfg := cluster.Default()
	cfg.Seed = opt.Seed
	cfg.Strategy = strategy
	cfg.NumMDS = 6
	cfg.ClientsPerMDS = 30
	cfg.FS.Users = 25 * cfg.NumMDS
	cfg.MDS.CacheCapacity = 2500
	cfg.Client.ThinkMean = 15 * sim.Millisecond
	// A bounded location cache forces rediscovery when activity moves,
	// the effect Figure 6 measures.
	cfg.Client.KnownCap = 512
	cfg.Workload.Kind = cluster.WorkShift
	cfg.SeriesBucket = sim.Second
	if opt.Quick {
		cfg.Workload.ShiftTime = 8 * sim.Second
		cfg.Duration = 24 * sim.Second
		cfg.Warmup = 4 * sim.Second
	} else {
		cfg.Workload.ShiftTime = 25 * sim.Second
		cfg.Duration = 80 * sim.Second
		cfg.Warmup = 10 * sim.Second
	}
	// Faster balance rounds so adaptation is visible on the plot.
	if cfg.Balancer != nil {
		b := *cfg.Balancer
		b.Interval = 2 * sim.Second
		cfg.Balancer = &b
	}
	return cfg
}

// shiftPlan is the Figure 5/6 shape: dynamic vs static under the
// workload shift.
func shiftPlan(name string, opt Options) *plan.Plan {
	return &plan.Plan{
		Name: name,
		Matrix: []plan.Axis{
			{Key: "strategy", Values: []string{cluster.StratDynamic, cluster.StratStatic}},
		},
		Tweak: func(cfg *cluster.Config, cell plan.Cell) {
			*cfg = shiftConfig(opt, cell["strategy"])
		},
	}
}

// fig5 regenerates Figure 5: the range (min..max) and average of MDS
// throughput over time under the shifting workload, dynamic vs static.
func fig5(opt Options) (*plan.Plan, Renderer, error) {
	return shiftPlan("fig5", opt), renderFig5, nil
}

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

// fig6 regenerates Figure 6: the fraction of client requests forwarded
// over time under the same shift.
func fig6(opt Options) (*plan.Plan, Renderer, error) {
	return shiftPlan("fig6", opt), renderFig6, nil
}

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

// flashConfig builds the Figure 7 flash-crowd run.
func flashConfig(opt Options, trafficOn bool) cluster.Config {
	cfg := cluster.Default()
	cfg.Seed = opt.Seed
	cfg.Strategy = cluster.StratDynamic
	cfg.NumMDS = 8
	cfg.ClientsPerMDS = 1250 // 10,000 clients, as in the paper
	cfg.FS.Users = 100
	cfg.MDS.CacheCapacity = 4000
	cfg.Client.ThinkMean = 20 * sim.Millisecond
	cfg.Workload.Kind = cluster.WorkFlashCrowd
	cfg.Duration = 10 * sim.Second
	cfg.Warmup = 4 * sim.Second
	cfg.SeriesBucket = 20 * sim.Millisecond
	cfg.Balancer = nil // isolate traffic control, as the figure does
	if !trafficOn {
		cfg.Traffic = nil
	}
	if opt.Quick {
		cfg.ClientsPerMDS = 250
	}
	return cfg
}

// fig7 regenerates Figure 7: cluster-wide replies and forwards per
// second through the flash crowd, without and with traffic control.
func fig7(opt Options) (*plan.Plan, Renderer, error) {
	return &plan.Plan{
		Name: "fig7",
		Matrix: []plan.Axis{
			{Key: "tc", Values: []string{"off", "on"}},
		},
		Tweak: func(cfg *cluster.Config, cell plan.Cell) {
			*cfg = flashConfig(opt, cell["tc"] == "on")
		},
	}, renderFig7, nil
}

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

// intStrings renders ints as matrix axis values.
func intStrings(ns []int) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = strconv.Itoa(n)
	}
	return out
}

// atoi is strconv.Atoi for matrix values already validated by Compile.
func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}
