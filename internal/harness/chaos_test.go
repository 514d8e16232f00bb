package harness

import (
	"reflect"
	"testing"

	"dynmds/internal/cluster"
	"dynmds/internal/fault"
	"dynmds/internal/plan"
	"dynmds/internal/sim"
)

func chaosTestOptions() ChaosOptions {
	return ChaosOptions{
		Seed:      7,
		Schedules: 3,
		Strategies: []string{
			cluster.StratDynamic, cluster.StratFileHash,
		},
	}
}

// TestChaosDeterministic: the same options produce a bit-identical
// report — the whole budget is a pure function of the seed.
func TestChaosDeterministic(t *testing.T) {
	a, err := Chaos(chaosTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chaos(chaosTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same options, different reports:\n%s\n%s", a, b)
	}
}

// TestChaosBudgetPasses: a small fixed-seed budget across every
// strategy is clean — the committed CI budget relies on this staying
// true.
func TestChaosBudgetPasses(t *testing.T) {
	opt := chaosTestOptions()
	opt.Seed = 1
	opt.Schedules = 4
	opt.Strategies = cluster.Strategies
	rep, err := Chaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("fixed-seed budget failed %d/%d runs:\n%s", rep.Failed, rep.Runs, rep)
	}
	if rep.Passed != rep.Runs || rep.Runs != opt.Schedules*len(cluster.Strategies) {
		t.Fatalf("accounting off: passed=%d failed=%d runs=%d", rep.Passed, rep.Failed, rep.Runs)
	}
	if rep.RulesTotal == 0 {
		t.Fatal("budget generated no rules at all")
	}
}

// knownBadSchedule is a noisy schedule for shrinker tests: a crash, a
// stray recovery, drops, a lag, a slow window and a partition.
func knownBadSchedule(t *testing.T) *fault.Schedule {
	t.Helper()
	s, err := fault.ParseSchedule(
		"crash@1s:mds1,recover@3s:mds2,drop@0.05:all,drop@0.1:client," +
			"lag@1s-2s:mds2+5ms,slow@2s-3s:mds0x2,partition@1500ms-2500ms:{0|1.2}")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShrinkScheduleSynthetic: against a synthetic predicate — fails
// iff the schedule still crashes mds1 AND keeps at least one drop rule
// — the shrinker must reach exactly those two rules.
func TestShrinkScheduleSynthetic(t *testing.T) {
	orig := knownBadSchedule(t)
	fails := func(s *fault.Schedule) bool {
		crash := false
		for _, ev := range s.Crashes {
			if ev.Node == 1 {
				crash = true
			}
		}
		return crash && len(s.Drops) > 0
	}
	if !fails(orig) {
		t.Fatal("predicate must hold for the original schedule")
	}
	shrunk, evals := ShrinkSchedule(orig, fails, 0)
	if !fails(shrunk) {
		t.Fatalf("shrunk schedule no longer fails: %s", shrunk)
	}
	if got := shrunk.NumRules(); got != 2 {
		t.Fatalf("expected the 2-rule minimum, got %d: %s", got, shrunk)
	}
	if evals <= 0 || evals > 200 {
		t.Fatalf("evaluation accounting off: %d", evals)
	}
	// The repro must replay: canonical text reparses to the same rules.
	back, err := fault.ParseSchedule(shrunk.String())
	if err != nil {
		t.Fatalf("shrunk schedule does not reparse: %v", err)
	}
	if back.NumRules() != shrunk.NumRules() {
		t.Fatalf("reparse changed rule count")
	}
	// The original is untouched (shrinking works on clones).
	if orig.NumRules() != knownBadSchedule(t).NumRules() {
		t.Fatal("ShrinkSchedule mutated its input")
	}
}

// TestShrinkScheduleBudget: the evaluation budget is a hard cap.
func TestShrinkScheduleBudget(t *testing.T) {
	calls := 0
	fails := func(s *fault.Schedule) bool { calls++; return true }
	_, evals := ShrinkSchedule(knownBadSchedule(t), fails, 5)
	if calls != 5 || evals != 5 {
		t.Fatalf("budget not enforced: calls=%d evals=%d", calls, evals)
	}
}

// TestShrinkScheduleWindows: with a predicate that only needs the lag
// rule, the shrinker both drops everything else and halves the
// surviving window.
func TestShrinkScheduleWindows(t *testing.T) {
	orig := knownBadSchedule(t)
	fails := func(s *fault.Schedule) bool { return len(s.Lags) > 0 }
	shrunk, _ := ShrinkSchedule(orig, fails, 0)
	if shrunk.NumRules() != 1 || len(shrunk.Lags) != 1 {
		t.Fatalf("expected a single lag rule, got %s", shrunk)
	}
	l := shrunk.Lags[0]
	if l.To-l.From >= 2*sim.Millisecond {
		t.Fatalf("window not narrowed: [%v, %v)", l.From, l.To)
	}
}

// TestShrinkScheduleRealRun: end-to-end shrink against real
// simulations. The predicate — "mds1 ends the run dead and
// suspicion-confirmed down" — needs only the unrecovered crash, so the
// noisy 7-rule schedule must shrink to that one rule, and the repro
// must still trip the predicate. (A looser predicate like "any down
// event" shrinks to a lone partition window instead: partitions also
// produce suspicions. Only a crash leaves the node failed.)
func TestShrinkScheduleRealRun(t *testing.T) {
	opt := chaosTestOptions()
	fails := func(s *fault.Schedule) bool {
		cfg, err := ChaosConfig(opt, cluster.StratDynamic, s.String())
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cl.Run()
		return cl.Nodes[1].Failed() && cl.NodeDown(1)
	}
	orig := knownBadSchedule(t)
	if !fails(orig) {
		t.Fatal("original schedule must trip the predicate")
	}
	shrunk, evals := ShrinkSchedule(orig, fails, 60)
	if !fails(shrunk) {
		t.Fatalf("shrunk schedule no longer trips the predicate: %s", shrunk)
	}
	if shrunk.NumRules() > 1 {
		t.Fatalf("expected the lone crash rule after %d evals, got: %s", evals, shrunk)
	}
	if len(shrunk.Crashes) != 1 || shrunk.Crashes[0].Node != 1 {
		t.Fatalf("wrong surviving rule: %s", shrunk)
	}
}

// TestChaosSetOverrides: -set lands on every cell of the budget, and a
// -set on a key the budget sweeps itself is refused rather than
// flattening the sweep. (That the replay line rebuilds the cell is
// cmd/mdsim's TestReproLinesRoundTrip.)
func TestChaosSetOverrides(t *testing.T) {
	opt := chaosTestOptions()
	opt.Set = []plan.Setting{{Key: "cache", Value: "1500"}, {Key: "net", Value: "queued"}}
	cfg, err := ChaosConfig(opt, cluster.StratDynamic, "crash@2s:mds1")
	if err != nil || cfg.MDS.CacheCapacity != 1500 || cfg.NetModel != "queued" {
		t.Fatalf("overrides not applied: %v %+v", err, cfg)
	}
	for _, s := range []plan.Setting{{Key: "strategy", Value: cluster.StratStatic}, {Key: "faults", Value: "drop@0.1:all"}, {Key: "link-bw", Value: "1e6"}} {
		opt.Set = []plan.Setting{s}
		if _, err := ChaosConfig(opt, cluster.StratDynamic, ""); err == nil {
			t.Errorf("-set %s accepted", s)
		}
	}
}

// TestAvailScenarioRespectsSeed: the availability experiment follows
// the -seed option — both the faulty run and its fault-free control —
// rather than being pinned to one RNG stream.
func TestAvailScenarioRespectsSeed(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		spec := availScenario(Options{Seed: seed}, cluster.StratDynamic)
		if spec.cfg.Seed != seed {
			t.Errorf("seed %d: scenario pinned to seed %d", seed, spec.cfg.Seed)
		}
	}
	a := availScenario(Options{Seed: 1}, cluster.StratDynamic)
	b := availScenario(Options{Seed: 2}, cluster.StratDynamic)
	if a.cfg.Faults != b.cfg.Faults {
		t.Error("fault schedule must not vary with the seed (only the workload RNG does)")
	}
}
