package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dynmds/internal/cluster"
	"dynmds/internal/plan"
	"dynmds/internal/sim"
)

func tinyCfg(strategy string) cluster.Config {
	cfg := cluster.Default()
	cfg.Strategy = strategy
	cfg.NumMDS = 2
	cfg.ClientsPerMDS = 5
	cfg.FS.Users = 10
	cfg.Duration = 2 * sim.Second
	cfg.Warmup = sim.Second
	return cfg
}

func TestRunOneAndSweep(t *testing.T) {
	specs := []RunSpec{
		{Label: "a", Cfg: tinyCfg(cluster.StratDynamic)},
		{Label: "b", Cfg: tinyCfg(cluster.StratFileHash)},
		{Label: "c", Cfg: tinyCfg(cluster.StratStatic)},
	}
	results, err := Sweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r == nil || r.MeasuredOps == 0 {
			t.Fatalf("spec %d produced nothing", i)
		}
	}
	if results[0].Strategy != cluster.StratDynamic || results[1].Strategy != cluster.StratFileHash {
		t.Fatal("results out of spec order")
	}
}

func TestSweepParallelismMatchesSerial(t *testing.T) {
	spec := RunSpec{Label: "x", Cfg: tinyCfg(cluster.StratDynamic)}
	serial, err := RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep([]RunSpec{spec, spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range par {
		if r.MeasuredOps != serial.MeasuredOps || r.HitRate != serial.HitRate {
			t.Fatalf("parallel run %d diverged from serial: %v vs %v", i, r, serial)
		}
	}
}

// TestDeterminism is the regression guard for the simulator's core
// contract: the same configuration and seed produce bit-identical
// results, run serially or through the parallel sweep. Event pooling,
// cache iteration order, and typed-callback dispatch must all preserve
// this; a flaky diff here means nondeterminism crept into the hot path.
// stripWall zeroes the real-time accounting fields, which legitimately
// differ between otherwise bit-identical runs.
func stripWall(r *cluster.Result) *cluster.Result {
	c := *r
	c.SetupWall, c.RunWall = 0, 0
	return &c
}

func TestDeterminism(t *testing.T) {
	cfg := cluster.Default()
	cfg.Strategy = cluster.StratDynamic
	cfg.NumMDS = 2
	cfg.ClientsPerMDS = 10
	cfg.FS.Users = 10
	cfg.Duration = 2 * sim.Second
	cfg.Warmup = 500 * sim.Millisecond
	spec := RunSpec{Label: "det", Cfg: cfg}

	first, err := RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(first), stripWall(second)) {
		t.Fatalf("serial reruns diverged:\n first: %+v\nsecond: %+v", first, second)
	}
	swept, err := Sweep([]RunSpec{spec, spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range swept {
		if !reflect.DeepEqual(stripWall(first), stripWall(r)) {
			t.Fatalf("sweep run %d diverged from serial:\nserial: %+v\n sweep: %+v", i, first, r)
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	bad := tinyCfg("Nonsense")
	if _, err := Sweep([]RunSpec{{Label: "bad", Cfg: bad}}); err == nil {
		t.Fatal("sweep swallowed an error")
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("experiments = %d, want 6", len(all))
	}
	seen := map[string]bool{}
	for _, e := range append(all, Extras()...) {
		if e.ID == "" || e.Title == "" || e.Build == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, ok := ByID(e.ID); !ok {
			t.Fatalf("ByID(%s) missed", e.ID)
		}
		// Every experiment is a plan, so -set lands on every one.
		for _, quick := range []bool{true, false} {
			opt := Options{Seed: 1, Quick: quick}
			if p, render, err := e.Build(opt); err != nil || p == nil || render == nil {
				t.Fatalf("%s: Build returned plan %v, renderer set %v, err %v", e.ID, p, render != nil, err)
			}
			opt.Set = []plan.Setting{{Key: "net", Value: "queued"}}
			if err := e.Check(opt); err != nil {
				t.Errorf("%s refuses -set net=queued: %v", e.ID, err)
			}
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("ByID invented an experiment")
	}
}

// TestAblationClaims holds every row of the ablations table to the
// verdict recorded beside it, at -quick over seeds 1-3: a claim recorded
// as holding must hold on every seed, and one recorded as deviating must
// fail on at least one — when it stops failing the record is stale and
// the claim is promoted, not left as a standing excuse.
func TestAblationClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const seeds = 3
	type row struct{ choice, metric string }
	held := map[row]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		opt := Options{Quick: true, Seed: seed}
		p, render, err := ablationsExt(opt)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := RunPlan(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		if err := render(&table, runs); err != nil {
			t.Fatal(err)
		}
		claims := 0
		for i, a := range ablations {
			for _, c := range a.claims {
				claims++
				pv, av := c.value(&runs[2*i]), c.value(&runs[2*i+1])
				switch ok := c.holds(pv, av); {
				case ok:
					held[row{a.choice, c.metric}]++
				case c.deviates == "":
					t.Errorf("seed %d: %s (§%s), %s: paper %g vs ablated %g does not hold; "+
						"record the deviation and its reason, do not loosen the claim", seed, a.choice, a.section, c.metric, pv, av)
				}
			}
		}
		if rows := strings.Count(table.String(), "\n") - 2; rows != claims { // less the title and the header
			t.Errorf("seed %d: %d claims, %d rows in the table:\n%s", seed, claims, rows, table.String())
		}
	}
	for _, a := range ablations {
		for _, c := range a.claims {
			if c.deviates != "" && held[row{a.choice, c.metric}] == seeds {
				t.Errorf("%s, %s is recorded as deviating (%s) but holds on seeds 1-%d", a.choice, c.metric, c.deviates, seeds)
			}
		}
	}
}

// TestPoolSize: the sweep pool is the requested worker count, or one
// worker per core when none is requested.
func TestPoolSize(t *testing.T) {
	if got := poolSize(0, 2); got != 2 {
		t.Errorf("default pool on 2 cores: %d workers, want 2", got)
	}
	if got := poolSize(3, 8); got != 3 {
		t.Errorf("explicit worker count not honoured: %d", got)
	}
}

func TestExtrasQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := Options{Quick: true, Seed: 1}
	for _, e := range Extras() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "ablations" {
				t.Skip("run and rendered by TestAblationClaims")
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, opt); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "Extension") {
				t.Fatalf("unexpected output:\n%s", buf.String())
			}
		})
	}
}

// The figure runners are exercised end-to-end at the smallest scale to
// catch wiring regressions; shape assertions live in EXPERIMENTS.md.
func TestFiguresQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := Options{Quick: true, Seed: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, opt); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "Figure") {
				t.Fatalf("no table header in output:\n%s", out)
			}
			if len(strings.Split(out, "\n")) < 4 {
				t.Fatalf("suspiciously short output:\n%s", out)
			}
		})
	}
}
