package harness

import (
	"fmt"
	"io"

	"dynmds/internal/cluster"
	"dynmds/internal/endure"
	"dynmds/internal/metrics"
	"dynmds/internal/plan"
)

// PlanRun is one executed cell of a plan: the compiled cell, its
// result, and what the cell runner checked beside it.
type PlanRun struct {
	plan.Compiled
	Res *cluster.Result
	// Fsck is the simfsck violation of a faulted or checkpointed cell;
	// nil when the cell was clean or not checked.
	Fsck error
	// shrunk is the schedule of a failed cell the harness shrank.
	shrunk *shrunk
	// Endure is the degradation curve and digest of a cell with a
	// checkpoint cadence.
	Endure *endure.Result
}

// Scenario wraps a scenario plan — a library plan or a plan file — as an
// experiment whose figure is the plan report. It carries no Title: the
// report prints its own heading.
func Scenario(p *plan.Plan) Experiment {
	return Experiment{
		ID:          p.Name,
		Description: p.Describe,
		Build: func(opt Options) ([]*plan.Plan, Renderer, error) {
			return []*plan.Plan{p}, func(w io.Writer, runs []PlanRun) error { return WritePlanReport(w, p, runs, opt.Restore) }, nil
		},
	}
}

// WritePlanReport renders the default deterministic plan report: a
// summary table across cells (optimize metrics first), then per cell its
// act table or its endurance report (restore names the snapshot it
// resumed from, if any). No wall-clock lines — the output is
// golden-stable.
func WritePlanReport(w io.Writer, p *plan.Plan, runs []PlanRun, restore string) error {
	fmt.Fprintf(w, "## plan %s\n", p.Name)
	if p.Describe != "" {
		fmt.Fprintf(w, "%s\n", p.Describe)
	}
	fmt.Fprintln(w)
	cols := planColumns(p)
	header := append([]string{"run"}, cols...)
	tbl := metrics.NewTable(header...)
	for _, r := range runs {
		row := make([]any, 0, len(header))
		row = append(row, r.Label)
		for _, c := range cols {
			row = append(row, planMetric(&r, c))
		}
		tbl.AddRow(row...)
	}
	fmt.Fprint(w, tbl.String())
	// A cell has acts or a checkpoint cadence, never both
	// (cluster.Config.EndureCheck).
	for _, r := range runs {
		if r.Endure != nil {
			fmt.Fprintf(w, "\nendurance: %s\n", r.Label)
			WriteEndure(w, &r, restore)
		}
		if len(p.Acts) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nacts: %s\n", r.Label)
		at := metrics.NewTable("act", "window", "issued", "completed", "ops/s", "p50 ms", "p99 ms", "spread")
		for _, a := range r.Res.Acts {
			at.AddRow(a.Name,
				fmt.Sprintf("%gs-%gs", a.From.Seconds(), a.To.Seconds()),
				fmt.Sprintf("%d", a.Issued),
				fmt.Sprintf("%d", a.Completed),
				fmt.Sprintf("%.0f", a.OpsPerSec),
				fmt.Sprintf("%.2f", a.P50*1000),
				fmt.Sprintf("%.2f", a.P99*1000),
				fmt.Sprintf("%.2f", a.LoadSpread))
		}
		fmt.Fprint(w, at.String())
	}
	return nil
}

// WriteEndure prints the endurance report of a cell with a checkpoint
// cadence: a line per checkpoint that passed, the cell's fault schedule
// if it has one, then the degradation curve, its drift and the run's
// digest — unless simfsck cut the run short, when the failure block
// after the report says why. restore names the snapshot the run
// resumed from, if any. It prints no wall time.
func WriteEndure(w io.Writer, r *PlanRun, restore string) {
	if restore != "" {
		fmt.Fprintf(w, "restoring from %s\n", restore)
	}
	for _, ck := range r.Endure.Rows {
		line := fmt.Sprintf("ck %2d t=%6.1fs: %8.0f ops/s, %6d tombstones (%.4f), lazy-miss %.4f, live %7d",
			ck.Index, ck.At.Seconds(), ck.OpsPerSec, ck.Tombstones, ck.TombstoneDensity, ck.LazyMissRate, ck.LiveInodes)
		if ck.Path != "" {
			line += " -> " + ck.Path
		}
		fmt.Fprintln(w, line)
	}
	if r.Cfg.Faults != "" {
		fmt.Fprintf(w, "faults: %s\n", r.Cfg.Faults)
	}
	if r.Fsck != nil {
		return
	}
	fmt.Fprint(w, r.Endure.CurveTable())
	fmt.Fprintf(w, "degradation drift: %.4f (1 - last/peak ops/s)\n", r.Endure.Drift())
	fmt.Fprintf(w, "digest: %s\n", r.Endure.Digest)
}

// planColumns returns the summary columns: the plan's optimize metrics
// in declared order, then the rest of the standard set.
func planColumns(p *plan.Plan) []string {
	cols := append([]string(nil), p.Optimize...)
	have := map[string]bool{}
	for _, c := range cols {
		have[c] = true
	}
	for _, c := range plan.Metrics {
		if !have[c] {
			cols = append(cols, c)
		}
	}
	return cols
}

// planMetric renders one summary metric for one run.
func planMetric(r *PlanRun, m string) string {
	res := r.Res
	switch m {
	case "ops":
		if sec := r.Cfg.Duration.Seconds(); sec > 0 {
			return fmt.Sprintf("%.0f", float64(res.Completed)/sec)
		}
		return "0"
	case "p50":
		return fmt.Sprintf("%.2fms", res.LatencyP50*1000)
	case "p99":
		return fmt.Sprintf("%.2fms", res.LatencyP99*1000)
	case "p999":
		return fmt.Sprintf("%.2fms", res.LatencyP999*1000)
	case "load-spread":
		return fmt.Sprintf("%.2f", loadSpreadOf(res.PerMDSOps))
	case "hit":
		return fmt.Sprintf("%.3f", res.HitRate)
	case "fwd":
		return fmt.Sprintf("%.3f", res.ForwardFrac)
	case "hot":
		// Ops served at the hotspot, split local (leased, zero fabric
		// hops) vs remote (round-tripped to an MDS).
		return fmt.Sprintf("%d+%d", res.HotspotLocal, res.HotspotRemote)
	}
	return "?"
}

// loadSpreadOf reduces per-MDS throughput to max/mean (1.0 = even).
func loadSpreadOf(perMDS []float64) float64 {
	if len(perMDS) == 0 {
		return 0
	}
	var sum, max float64
	for _, v := range perMDS {
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / float64(len(perMDS))
	if mean <= 0 {
		return 0
	}
	return max / mean
}
