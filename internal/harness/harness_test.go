package harness

import (
	"bytes"
	"fmt"
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
	for _, e := range all {
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
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("ByID invented an experiment")
	}
	for _, e := range Extras() {
		if _, ok := ByID(e.ID); !ok {
			t.Fatalf("extra %s not findable", e.ID)
		}
	}
}

// TestPoolSizeCountsShards: the sweep pool is sized from the runs being
// swept — four cells at four shards each on two cores get one worker —
// wherever the shard count was set: in the plan text or by -set.
func TestPoolSizeCountsShards(t *testing.T) {
	const text = "plan pool\ncluster %s\nmatrix strategy=StaticSubtree,DynamicSubtree,DirHash,FileHash\nduration 10s\n"
	for name, tc := range map[string]struct {
		cluster string
		set     []plan.Setting
		want    int
	}{
		"plan text": {"shards=4", nil, 1},
		"-set":      {"mds=4", []plan.Setting{{Key: "shards", Value: "4"}}, 1},
		"serial":    {"mds=4", nil, 2},
	} {
		p, err := plan.Parse(fmt.Sprintf(text, tc.cluster))
		if err != nil {
			t.Fatal(err)
		}
		cells, err := p.Compile(Options{Set: tc.set})
		if err != nil || len(cells) != 4 {
			t.Fatalf("%s: %d cells, %v", name, len(cells), err)
		}
		if got := poolSize(0, 2, cells); got != tc.want {
			t.Errorf("%s: pool of %d workers on 2 cores, want %d", name, got, tc.want)
		}
	}
	if got := poolSize(3, 8, nil); got != 3 {
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
// catch wiring regressions; shape assertions live in EXPERIMENTS.md and
// the benchmarks.
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
