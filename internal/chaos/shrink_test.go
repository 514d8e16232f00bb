package chaos

import (
	"slices"
	"testing"

	"dynmds/internal/cluster"
	"dynmds/internal/fault"
	"dynmds/internal/sim"
)

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

// countKind counts s's rules of kind k.
func countKind(s *fault.Schedule, k fault.Kind) int {
	n := 0
	for _, r := range s.Rules {
		if r.Kind == k {
			n++
		}
	}
	return n
}

// TestShrinkScheduleSynthetic: against a synthetic predicate — fails
// iff the schedule still crashes mds1 AND keeps at least one drop rule
// — the shrinker must reach exactly those two rules.
func TestShrinkScheduleSynthetic(t *testing.T) {
	orig := knownBadSchedule(t)
	fails := func(s *fault.Schedule) bool {
		crash := slices.ContainsFunc(s.Rules, func(r fault.Rule) bool { return r.Kind == fault.Crash && r.Node == 1 })
		return crash && countKind(s, fault.Drop) > 0
	}
	if !fails(orig) {
		t.Fatal("predicate must hold for the original schedule")
	}
	shrunk, evals := ShrinkSchedule(orig, fails, 200)
	if !fails(shrunk) {
		t.Fatalf("shrunk schedule no longer fails: %s", shrunk)
	}
	if got := len(shrunk.Rules); got != 2 {
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
	if len(back.Rules) != len(shrunk.Rules) {
		t.Fatalf("reparse changed rule count")
	}
	// The original is untouched (shrinking works on clones).
	if len(orig.Rules) != len(knownBadSchedule(t).Rules) {
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
	fails := func(s *fault.Schedule) bool { return countKind(s, fault.Lag) > 0 }
	shrunk, _ := ShrinkSchedule(orig, fails, 200)
	if len(shrunk.Rules) != 1 || shrunk.Rules[0].Kind != fault.Lag {
		t.Fatalf("expected a single lag rule, got %s", shrunk)
	}
	l := shrunk.Rules[0]
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
	fails := func(s *fault.Schedule) bool {
		// A cell of the chaos budget on seed 7.
		cfg := tinyConfig(cluster.StratDynamic, s.String())
		cfg.Seed, cfg.NumMDS, cfg.Duration = 7, 4, 5*sim.Second
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
	if len(shrunk.Rules) > 1 {
		t.Fatalf("expected the lone crash rule after %d evals, got: %s", evals, shrunk)
	}
	if countKind(shrunk, fault.Crash) != 1 || shrunk.Rules[0].Node != 1 {
		t.Fatalf("wrong surviving rule: %s", shrunk)
	}
}
