package harness

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dynmds/internal/cluster"
	"dynmds/internal/endure"
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

// runOne runs one cell alone.
func runOne(t *testing.T, c plan.Compiled) *cluster.Result {
	t.Helper()
	run, err := runCell(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return run.Res
}

// results sweeps the cells and returns their results.
func results(t *testing.T, cells []plan.Compiled) []*cluster.Result {
	t.Helper()
	runs, err := sweep(cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*cluster.Result, len(runs))
	for i := range runs {
		out[i] = runs[i].Res
	}
	return out
}

func TestRunOneAndSweep(t *testing.T) {
	results := results(t, []plan.Compiled{
		{Label: "a", Cfg: tinyCfg(cluster.StratDynamic)},
		{Label: "b", Cfg: tinyCfg(cluster.StratFileHash)},
		{Label: "c", Cfg: tinyCfg(cluster.StratStatic)},
	})
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
	spec := plan.Compiled{Label: "x", Cfg: tinyCfg(cluster.StratDynamic)}
	serial := runOne(t, spec)
	for i, r := range results(t, []plan.Compiled{spec, spec, spec}) {
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
	spec := plan.Compiled{Label: "det", Cfg: cfg}

	first, second := runOne(t, spec), runOne(t, spec)
	if !reflect.DeepEqual(stripWall(first), stripWall(second)) {
		t.Fatalf("serial reruns diverged:\n first: %+v\nsecond: %+v", first, second)
	}
	for i, r := range results(t, []plan.Compiled{spec, spec, spec}) {
		if !reflect.DeepEqual(stripWall(first), stripWall(r)) {
			t.Fatalf("sweep run %d diverged from serial:\nserial: %+v\n sweep: %+v", i, first, r)
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	bad := tinyCfg("Nonsense")
	_, err := sweep([]plan.Compiled{{Label: "bad", Cfg: bad}}, Options{})
	var be *BuildError
	if !errors.As(err, &be) || be.Label != "bad" {
		t.Fatalf("sweep did not report the cell that failed to build: %v", err)
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
			if ps, render, err := e.Build(opt); err != nil || len(ps) == 0 || render == nil {
				t.Fatalf("%s: Build returned %d plans, renderer set %v, err %v", e.ID, len(ps), render != nil, err)
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

// TestExperimentCellsReplay: every cell of every experiment and of the
// chaos budget, at both scales, is the default plan under the -set line
// plan.CommandLine prints for it, field for field — so a figure cell or
// a chaos failure reproduces from its repro line alone — and every
// experiment's plans print as canonical text that parses back to the
// same text.
func TestExperimentCellsReplay(t *testing.T) {
	for _, e := range append(All(), append(Extras(), Chaos())...) {
		for _, quick := range []bool{false, true} {
			opt := Options{Seed: 1, Quick: quick}
			ps, _, err := e.Build(opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ps {
				text := p.String()
				back, err := plan.Parse(text)
				if err != nil || back.String() != text {
					t.Errorf("%s: plan %s does not round-trip (%v):\n%s", e.ID, p.Name, err, text)
				}
			}
			cells, _, err := e.compile(opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				line := plan.CommandLine(c.Cfg)
				args := strings.Fields(strings.ReplaceAll(line, "'", ""))
				var set []plan.Setting
				for i := 3; i+1 < len(args); i += 2 {
					st, err := plan.ParseSetting(args[i+1])
					if args[i] != "-set" || err != nil {
						t.Fatalf("%s: bad argument %q %q (%v) in: %s", c.Label, args[i], args[i+1], err, line)
					}
					set = append(set, st)
				}
				rebuilt, err := plan.Default().Compile(Options{Seed: c.Cfg.Seed, Set: set})
				if err != nil {
					t.Fatalf("%s: %s: %v", c.Label, line, err)
				}
				if !reflect.DeepEqual(rebuilt[0].Cfg, c.Cfg) {
					t.Errorf("%s (quick %v) does not replay from\n%s\n got: %+v\nwant: %+v", c.Label, quick, line, rebuilt[0].Cfg, c.Cfg)
				}
			}
		}
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
		e, _ := ByID("ablations")
		runs, render, err := e.runs(Options{Quick: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		if err := render(&table, runs); err != nil {
			t.Fatal(err)
		}
		if seed == 1 {
			// What Run prints at seed 1: the table, and no simfsck
			// failure block after it.
			for i := range runs {
				if runs[i].Fsck != nil {
					t.Errorf("%s failed simfsck: %v", runs[i].Label, runs[i].Fsck)
				}
			}
			sameReport(t, e.ID, table.String(), quickGolden(t)[e.ID])
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

// quickGolden splits testdata/figures_quick.txt, which
// scripts/regen-golden.sh writes from mdsim -plan figures -quick, into
// the report each experiment printed, keyed by ID. The file must be, in
// All() then Extras() order, each experiment's "== Title ==" heading,
// description, report and wall-time line, with nothing after the last:
// so the headings checked here and the reports diffed by the tests
// below pin every byte of it but the wall times.
func quickGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "figures_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rest := string(data)
	reports := map[string]string{}
	for _, e := range append(All(), Extras()...) {
		head := fmt.Sprintf("== %s ==\n%s\n\n", e.Title, e.Description)
		if !strings.HasPrefix(rest, head) {
			t.Fatalf("testdata/figures_quick.txt: %s's block does not start with its heading and description:\n%s", e.ID, head)
		}
		rest = rest[len(head):]
		end := strings.Index(rest, "\n(wall time ")
		nl := strings.Index(rest[end+1:], ")\n\n")
		if end < 0 || nl < 0 {
			t.Fatalf("testdata/figures_quick.txt: %s's report ends in no wall-time line", e.ID)
		}
		reports[e.ID] = rest[:end+1]
		rest = rest[end+1+nl+len(")\n\n"):]
	}
	if rest != "" {
		t.Fatalf("testdata/figures_quick.txt runs on past the last experiment:\n%s", rest)
	}
	return reports
}

// sameReport fails t at the first line where an experiment's report
// differs from its golden. Seed and network model are fixed, so a
// difference is a behaviour change: explain it and run
// scripts/regen-golden.sh.
func sameReport(t *testing.T, id, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.SplitAfter(got, "\n"), strings.SplitAfter(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	g, w = append(g, ""), append(w, "") // "" past the end
	t.Fatalf("%s -quick differs from testdata/figures_quick.txt at line %d of its report:\n got: %q\nwant: %q", id, i+1, g[i], w[i])
}

func TestExtrasQuickSmoke(t *testing.T)  { quickSmoke(t, Extras()) }
func TestFiguresQuickSmoke(t *testing.T) { quickSmoke(t, All()) }

// quickSmoke runs each experiment end to end at -quick, seed 1, and
// holds it to its golden report byte for byte.
func quickSmoke(t *testing.T, experiments []Experiment) {
	if testing.Short() {
		t.Skip("short mode")
	}
	golden := quickGolden(t)
	for _, e := range experiments {
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "ablations" {
				t.Skip("run, rendered and diffed by TestAblationClaims")
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, Options{Quick: true, Seed: 1}); err != nil {
				t.Fatal(err)
			}
			sameReport(t, e.ID, buf.String(), golden[e.ID])
		})
	}
}

// settings parses space-separated key=value pairs as -set would.
func settings(t *testing.T, text string) []plan.Setting {
	t.Helper()
	var out []plan.Setting
	for _, f := range strings.Fields(text) {
		st, err := plan.ParseSetting(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

// soakKeys is the soak smoke of scripts/ci.sh: 20k clients at ~600
// ops/s of the endurance op mix, whose unlinks age the overlay, on the
// default plan's four nodes, four checkpoints over 10 s.
const soakKeys = "rate=0.03 clients=20000 users=60 duration=10s warmup=1s checkpoint=2.5s " +
	"mix=stat:55,readdir:10,chmod:5,create:12,rename:3,unlink:15"

// TestSoakDeterminism: soak=4 compiles to a rolling schedule of four
// crash/recover cycles written into faults, and the cell it makes is a
// pure function of its keys — two runs agree on the digest — that
// passes simfsck at every checkpoint. Across the crash cycles, ops/sec
// at the last checkpoint stays within 15% of the peak.
func TestSoakDeterminism(t *testing.T) {
	cells, err := plan.Default().Compile(Options{Set: settings(t, soakKeys+" soak=4")})
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	if got := strings.Count(c.Cfg.Faults, "crash@"); got != 4 || c.Cfg.Soak != 0 {
		t.Fatalf("soak=4 compiled to %d crash cycles and soak=%d: %s", got, c.Cfg.Soak, c.Cfg.Faults)
	}
	var runs [2]PlanRun
	for i := range runs {
		if runs[i], err = runCell(c, Options{}); err != nil {
			t.Fatal(err)
		}
		if runs[i].Fsck != nil {
			t.Fatalf("soak failed simfsck: %v", runs[i].Fsck)
		}
	}
	a, b := runs[0].Endure, runs[1].Endure
	if a.Digest != b.Digest {
		t.Fatalf("soak digests differ:\n  %s\n  %s", a.Digest, b.Digest)
	}
	if last := a.Rows[len(a.Rows)-1]; last.Tombstones == 0 {
		t.Fatalf("no tombstones at the last checkpoint: the soak aged nothing\n%s", a.CurveTable())
	}
	if d := a.Drift(); d > 0.15 {
		t.Errorf("throughput drift %.3f exceeds 0.15 (curve peak→last)", d)
	}
}

// TestShrinkRestoresFromLastGoodCheckpoint: a checkpointed faulted cell
// that fails simfsck at checkpoint 2, run under -checkpoint-dir, is
// shrunk from its last good checkpoint — every candidate restores
// ck-001.snap and replays only the failing tail — and its failure
// block's replay line restores that snapshot too. The violation is
// planted on a clean run, so no candidate reproduces it.
func TestShrinkRestoresFromLastGoodCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opt := Options{CheckpointDir: dir, Set: settings(t, soakKeys+" faults=crash@3s:mds1,recover@4s:mds1,drop@0.01:client")}
	cells, err := plan.Default().Compile(opt)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runCell(cells[0], opt)
	if err != nil || run.Fsck != nil || len(run.Endure.Rows) != 4 {
		t.Fatalf("the checkpointing run: %v, simfsck %v", err, run.Fsck)
	}
	run.Endure.Rows = run.Endure.Rows[:2]
	run.Fsck = &endure.FsckError{Checkpoint: 2, At: 3 * cells[0].Cfg.Checkpoint, Err: errors.New("planted violation")}
	runs := []PlanRun{run}
	var restored []string
	shrinkFailures(runs, opt, func(c plan.Compiled, o Options) (PlanRun, error) {
		restored = append(restored, o.Restore)
		return runCell(c, o)
	})
	ck1 := filepath.Join(dir, "ck-001.snap")
	s := runs[0].shrunk
	if s == nil || s.Evals == 0 || s.Evals != len(restored) || s.From != ck1 || s.Faults != run.Cfg.Faults {
		t.Fatalf("shrink: %+v over %d candidates, want %s unchanged from %s", s, len(restored), run.Cfg.Faults, ck1)
	}
	for i, from := range restored {
		if from != ck1 {
			t.Errorf("candidate %d restored from %q, want %s", i, from, ck1)
		}
	}
	var out bytes.Buffer
	writeFailure(&out, &runs[0], "")
	for _, want := range []string{
		"FAIL default\n  checkpoint 2 (t=7.500s)\n  planted violation\n",
		"  replay: " + plan.CommandLine(run.Cfg, "-restore", ck1) + "\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("failure block lacks %q:\n%s", want, out.String())
		}
	}
}

// TestExperimentsStatesFigure2: EXPERIMENTS.md's Figure 2 table holds
// every row of the paper-scale golden, testdata/figures_full.txt, each
// cell rounded to a whole op/s, and its FileHash decline is the
// golden's, first row to last.
func TestExperimentsStatesFigure2(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "figures_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	// The golden's block: a header line, then one row per cluster size.
	const title = "Figure 2: average MDS throughput (ops/sec) vs cluster size\n"
	_, block, ok := strings.Cut(string(golden), title)
	if !ok {
		t.Fatalf("figures_full.txt has no %q block", strings.TrimSpace(title))
	}
	lines := strings.Split(block, "\n")
	header := strings.Fields(lines[0])
	var want [][]string
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		if len(f) != len(header) {
			break
		}
		row := []string{f[0]}
		for _, v := range f[1:] {
			var x float64
			if _, err := fmt.Sscan(v, &x); err != nil {
				t.Fatalf("golden cell %q: %v", v, err)
			}
			row = append(row, fmt.Sprintf("%.0f", x))
		}
		want = append(want, row)
	}
	// The document's table: the first one under the Figure 2 heading.
	_, section, ok := strings.Cut(string(doc), "## Figure 2 ")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Figure 2 section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var got [][]string
	for _, l := range strings.Split(section, "\n") {
		if !strings.HasPrefix(l, "|") || strings.HasPrefix(l, "|--") {
			continue
		}
		var row []string
		for _, c := range strings.Split(strings.Trim(l, "|"), "|") {
			row = append(row, strings.TrimSpace(c))
		}
		got = append(got, row)
	}
	want = append([][]string{header}, want...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EXPERIMENTS.md's Figure 2 table:\n%v\nthe golden's rows, rounded:\n%v", got, want)
	}
	first, last := want[1], want[len(want)-1]
	col := len(header) - 1
	if header[col] != "FileHash" {
		t.Fatalf("the golden's last column is %s, want FileHash", header[col])
	}
	var a, b float64
	fmt.Sscan(first[col], &a)
	fmt.Sscan(last[col], &b)
	claim := fmt.Sprintf("(−%.0f%% from n=%s to n=%s)", 100*(1-b/a), first[0], last[0])
	if !strings.Contains(strings.Join(strings.Fields(section), " "), claim) {
		t.Errorf("EXPERIMENTS.md's Figure 2 prose does not say %q", claim)
	}
}
