package harness

import (
	"fmt"
	"io"

	"dynmds/internal/chaos"
	"dynmds/internal/fault"
	"dynmds/internal/plan"
	"dynmds/internal/sim"
)

// The chaos budget: chaosSchedules generated fault schedules
// (chaos.Generate, runs 0.. off the seed), each run against every
// strategy and checked by simfsck after a drain; failing cells are
// shrunk and reported as any experiment's are (Experiment.Run). The
// whole budget is a pure function of the seed and the -set overrides.
const chaosSchedules = 50

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
// its report is one summary line, then the failure blocks.
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

// writeChaosReport prints the budget's summary line.
func writeChaosReport(w io.Writer, seed int64, scheds []*fault.Schedule, runs []PlanRun) {
	failed, rules := 0, 0
	for _, s := range scheds {
		rules += len(s.Rules)
	}
	for i := range runs {
		if runs[i].Fsck != nil {
			failed++
		}
	}
	fmt.Fprintf(w, "chaos: seed=%d schedules=%d strategies=%d runs=%d passed=%d failed=%d rules=%d\n",
		seed, len(scheds), len(runs)/len(scheds), len(runs), len(runs)-failed, failed, rules)
}
