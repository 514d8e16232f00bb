package harness

import (
	"fmt"
	"io"
	"strings"

	"dynmds/internal/chaos"
	"dynmds/internal/fault"
	"dynmds/internal/plan"
	"dynmds/internal/sim"
)

// The chaos budget: chaosSchedules generated fault schedules
// (chaos.Generate, runs 0.. off the seed), each run against every
// strategy and checked by simfsck after a drain. Of the failing cells
// the first chaosMaxShrinks are shrunk to minimal repros, spending at
// most chaosShrinkBudget predicate evaluations (full re-runs) each. The
// whole budget is a pure function of the seed and the -set overrides.
const (
	chaosSchedules    = 50
	chaosShrinkBudget = 120
	chaosMaxShrinks   = 4
)

// chaosSrc is the cell the budget injects its schedules into; the faults
// axis goes in front of its matrix, so cells are schedule-major.
const chaosSrc = `plan chaos
quick 1
fs users=30
cluster mds=4 cache=500
traffic clients=40
matrix strategy=StaticSubtree,DynamicSubtree,DirHash,LazyHybrid,FileHash
warmup 1s
duration 5s
`

// Chaos is the chaos budget as an experiment. It prints no heading:
// its report is one summary line and its failures.
func Chaos() Experiment { return chaosExperiment(chaosSchedules) }

func chaosExperiment(schedules int) Experiment {
	return Experiment{
		ID: "chaos",
		Description: fmt.Sprintf("The chaos budget: %d generated fault schedules, each against every "+
			"strategy, every run drained and checked by simfsck; failures are shrunk to replay lines.", schedules),
		Build: func(opt Options) ([]*plan.Plan, Renderer, error) {
			p, err := plan.Parse(chaosSrc)
			if err != nil {
				return nil, nil, err
			}
			// The schedules are generated for the cluster and run the
			// overrides leave.
			cells, err := p.Compile(opt)
			if err != nil {
				return nil, nil, err
			}
			cfg := cells[0].Cfg
			if cfg.NumMDS < 2 || cfg.Duration < sim.Second {
				return nil, nil, fmt.Errorf("chaos: the budget needs mds >= 2 and a duration of at least 1s")
			}
			scheds := make([]*fault.Schedule, schedules)
			texts := make([]string, schedules)
			for i := range scheds {
				scheds[i] = chaos.Generate(chaos.GenConfig{Seed: cfg.Seed, Run: i, NumMDS: cfg.NumMDS, Duration: cfg.Duration})
				texts[i] = scheds[i].String()
			}
			p.Matrix = append([]plan.Axis{{{Key: "faults", Values: texts}}}, p.Matrix...)
			return []*plan.Plan{p}, func(w io.Writer, runs []PlanRun) error {
				writeChaosReport(w, cfg.Seed, scheds, runs)
				return nil
			}, nil
		},
	}
}

// writeChaosReport prints the budget's summary line and every cell that
// failed simfsck (the runs are schedule-major); the first
// chaosMaxShrinks failures are shrunk and given the command that
// replays them.
func writeChaosReport(w io.Writer, seed int64, scheds []*fault.Schedule, runs []PlanRun) {
	strategies, rules := len(runs)/len(scheds), 0
	for _, s := range scheds {
		rules += s.NumRules()
	}
	var failed []int
	for i := range runs {
		if runs[i].Fsck != nil {
			failed = append(failed, i)
		}
	}
	fmt.Fprintf(w, "chaos: seed=%d schedules=%d strategies=%d runs=%d passed=%d failed=%d rules=%d\n",
		seed, len(scheds), strategies, len(runs), len(runs)-len(failed), len(failed), rules)
	for n, i := range failed {
		r, sched := &runs[i], scheds[i/strategies]
		fmt.Fprintf(w, "FAIL schedule=%d strategy=%s rules=%d\n  faults: %s\n  %s\n",
			i/strategies, r.Cfg.Strategy, sched.NumRules(), r.Cfg.Faults,
			strings.ReplaceAll(r.Fsck.Error(), "\n", "\n  "))
		if n >= chaosMaxShrinks {
			continue
		}
		cfg := r.Cfg
		shrunk, evals := chaos.ShrinkSchedule(sched, func(s *fault.Schedule) bool {
			cfg.Faults = s.String()
			run, err := runCell(plan.Compiled{Label: r.Label, Cfg: cfg}, Options{}, false)
			return err == nil && run.Fsck != nil
		}, chaosShrinkBudget)
		if shrunk.NumRules() == 0 {
			fmt.Fprintf(w, "  shrunk to the empty schedule in %d evals — fails without faults\n", evals)
		} else {
			fmt.Fprintf(w, "  shrunk %d -> %d rules in %d evals: %s\n", sched.NumRules(), shrunk.NumRules(), evals, shrunk)
		}
		cfg.Faults = shrunk.String()
		fmt.Fprintf(w, "  replay: %s\n", plan.CommandLine(cfg))
	}
}
