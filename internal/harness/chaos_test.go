package harness

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dynmds/internal/cluster"
	"dynmds/internal/plan"
)

// runChaos runs a budget of the given number of schedules on a seed and
// returns its report.
func runChaos(t *testing.T, schedules int, opt Options) string {
	t.Helper()
	var out bytes.Buffer
	if err := chaosExperiment(schedules).Run(&out, opt); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	return out.String()
}

// TestChaosDeterministic: the same options produce a bit-identical
// report — the whole budget is a pure function of the seed.
func TestChaosDeterministic(t *testing.T) {
	a, b := runChaos(t, 3, Options{Seed: 7}), runChaos(t, 3, Options{Seed: 7})
	if a != b {
		t.Fatalf("same options, different reports:\n%s\n%s", a, b)
	}
}

// TestChaosSetOverrides: -set lands on every cell of the budget, and a
// -set on a key the budget sweeps itself is refused rather than
// flattening the sweep. (That the replay line rebuilds the cell is
// TestExperimentCellsReplay.)
func TestChaosSetOverrides(t *testing.T) {
	e := chaosExperiment(2)
	cells, _, err := e.compile(Options{Seed: 7, Set: []plan.Setting{{Key: "cache", Value: "1500"}, {Key: "net", Value: "queued"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Cfg.MDS.CacheCapacity != 1500 || c.Cfg.NetModel != "queued" || c.Cfg.Faults == "" {
			t.Fatalf("%s: overrides not applied: %+v", c.Label, c.Cfg)
		}
	}
	for _, s := range []plan.Setting{{Key: "strategy", Value: cluster.StratStatic}, {Key: "faults", Value: "drop@0.1:all"}} {
		if err := e.Check(Options{Set: []plan.Setting{s}}); err == nil {
			t.Errorf("-set %s accepted", s)
		}
	}
}

// TestChaosReportShrinksFailures: a failing cell is shrunk by the
// harness, not by the renderer, and reported in the common failure
// block: label, violation, schedule, the shrunk schedule with its evals,
// and a replay line that spells the shrunk schedule. The violation is
// planted, so every shrink candidate passes and the schedule cannot
// shrink; each candidate re-runs the cell from t=0.
func TestChaosReportShrinksFailures(t *testing.T) {
	opt := Options{Seed: 3}
	e := chaosExperiment(1)
	ps, render, err := e.Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := ps[0].Compile(opt)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]PlanRun, len(cells))
	for i, c := range cells {
		runs[i] = PlanRun{Compiled: c}
	}
	runs[2].Fsck = errors.New("planted violation")
	shrinkFailures(runs, opt, runCell)
	var out bytes.Buffer
	if err := render(&out, runs); err != nil {
		t.Fatal(err)
	}
	r := &runs[2]
	writeFailure(&out, r, "")
	s, faults := r.shrunk, r.Cfg.Faults
	if s == nil || s.Faults != faults || s.Evals == 0 || s.From != "" {
		t.Fatalf("shrink of a failure no candidate reproduces: %+v, want %s unchanged, from t=0", s, faults)
	}
	for _, want := range []string{
		"passed=4 failed=1",
		"FAIL " + r.Label + "\n  planted violation\n  faults: " + faults + "\n",
		fmt.Sprintf("  shrunk in %d evals: %s\n", s.Evals, faults),
		"  replay: " + plan.CommandLine(r.Cfg) + "\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestAvailScenarioRespectsSeed: the availability experiment follows
// the -seed option — both the faulty runs and their fault-free controls
// — rather than being pinned to one RNG stream.
func TestAvailScenarioRespectsSeed(t *testing.T) {
	avail, _ := ByID("avail")
	var faults [2][]string
	for i, seed := range []int64{1, 42} {
		cells, _, err := avail.compile(Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if c.Cfg.Seed != seed {
				t.Errorf("seed %d: %s pinned to seed %d", seed, c.Label, c.Cfg.Seed)
			}
			faults[i] = append(faults[i], c.Cfg.Faults)
		}
	}
	if !slices.Equal(faults[0], faults[1]) {
		t.Error("fault schedules must not vary with the seed (only the workload RNG does)")
	}
}
