package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"dynmds/internal/client"
	"dynmds/internal/cluster"
	"dynmds/internal/harness"
	"dynmds/internal/plan"
	"dynmds/internal/sim"
	"dynmds/internal/snap/snaptest"
)

// badPlans are plan DSL files that parse or compile to an error: an
// unknown act kind, overlapping phase acts, a zero rate multiplier, a
// hotspot target that is not in the namespace, and a shards key, which
// no cluster line accepts.
var badPlans = map[string]string{
	"bad-kind": `plan bad-kind
traffic clients=100 rate=1
duration 10s
act surge a @1s-2s
`,
	"bad-overlap": `plan bad-overlap
traffic clients=100 rate=1
duration 10s
act phase a @1s-5s
act phase b @4s-6s
`,
	"bad-rate": `plan bad-rate
traffic clients=100 rate=1
duration 10s
act phase a @1s-2s rate=x0
`,
	"bad-hotspot": `plan bad-hotspot
fs users=8
traffic clients=100 rate=1
duration 10s
act hotspot a @1s-2s target=/no/such/path frac=0.5
`,
	"bad-shards": `plan bad-shards
cluster shards=-3
duration 10s
`,
}

// TestUsageErrors: every bad knob or inconsistent combination is a usage
// error — exit status 2 and a message on stderr naming what is wrong —
// raised before any simulation runs, so stdout stays empty.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	planFile := func(name string) string {
		path := filepath.Join(dir, name+".plan")
		if err := os.WriteFile(path, []byte(badPlans[name]), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown net model", []string{"-set", "net=bogus", "-plan", "fig2", "-quick"}, `unknown net "bogus"`},
		{"unknown fault kind", []string{"-set", "faults=explode@1s:mds0"}, `unknown fault kind "explode"`},
		{"negative shards", []string{"-set", "shards=-3"}, `unknown key "shards"`},
		{"leases without open loop", []string{"-set", "mechanism=leases"}, "client leases need an open-loop population"},
		{"checkpoint flags without a cadence", []string{"-set", "rate=10", "-checkpoint-dir", dir}, "need a checkpoint cadence"},
		{"endure without open loop", []string{"-set", "checkpoint=2.5s"}, "endurance runs need the open-loop traffic plane"},
		{"cadence inside the quiesce drain", []string{"-set", "rate=10", "-set", "checkpoint=2s"}, "must exceed the 2s quiesce drain"},
		{"endure on the shared OSD pool", []string{"-set", "rate=0.05", "-set", "clients=2000", "-set", "checkpoint=2.5s", "-set", "osds=8"},
			"do not support a shared OSD pool"},
		{"endure with unembedded inodes", []string{"-set", "rate=0.05", "-set", "clients=2000", "-set", "checkpoint=2.5s",
			"-set", "strategy=StaticSubtree", "-set", "embed=off"}, "do not support embed=off"},
		{"endure on LazyHybrid", []string{"-set", "rate=0.05", "-set", "clients=2000", "-set", "checkpoint=2.5s", "-set", "strategy=LazyHybrid"},
			"do not support the LazyHybrid strategy"},
		{"soak on a single node", []string{"-set", "rate=10", "-set", "mds=1", "-set", "checkpoint=2.5s", "-set", "soak=2"},
			"a rolling schedule needs at least 2 MDS nodes"},
		{"chaos budget on a single node", []string{"-plan", "chaos", "-set", "mds=1"}, "the budget needs mds >= 2"},
		{"restore on a matrix plan", []string{"-plan", "clients", "-quick", "-set", "checkpoint=2.5s", "-restore", filepath.Join(dir, "ck-000.snap")},
			"take a plan of one run, not 6"},
		{"plan: unknown act kind", []string{"-plan", planFile("bad-kind"), "-quick"}, `unknown act kind "surge"`},
		{"plan: overlapping phases", []string{"-plan", planFile("bad-overlap"), "-quick"}, `act "b" (from 2s) overlaps act "a"`},
		{"plan: zero rate", []string{"-plan", planFile("bad-rate"), "-quick"}, `act rate multiplier "x0" must be > 0`},
		{"plan: hotspot not in namespace", []string{"-plan", planFile("bad-hotspot"), "-quick"}, "hotspot path not in namespace"},
		{"unknown plan name", []string{"-plan", "no-such-plan"}, `-plan "no-such-plan" is neither listed by -list nor a readable plan file`},
		{"warmup equals duration", []string{"-set", "duration=5s", "-set", "warmup=5s"}, "warmup 5s does not fit the 5s duration"},
		{"default warmup past duration", []string{"-set", "rate=10", "-set", "clients=1000", "-set", "duration=3s"},
			"warmup 5s does not fit the 3s duration"},
		{"link bandwidth on the fixed model", []string{"-set", "link-bw=1e6"}, `unknown key "link-bw"`},
		{"unknown strategy", []string{"-set", "strategy=Bogus"}, `unknown strategy "Bogus"`},
		{"unknown figure", []string{"-plan", "fig99", "-quick"}, `-plan "fig99" is neither listed`},
		{"empty cluster", []string{"-set", "mds=0"}, `mds: bad value "0" (want a whole number >= 1)`},
		{"a cache past its 16-bit references", []string{"-set", "cache=70000"}, "a cache of 70000 records is more than the 65408"},
		{"more nodes than a hint can name", []string{"-set", "mds=32769"}, "a cluster of 32769 MDSs is more than the 32768"},
		{"more nodes than a replica set can name", []string{"-set", "mds=65"}, "a cluster of 65 MDSs is more than the 64 a replica set can name"},

		{"plan: negative shards", []string{"-plan", planFile("bad-shards")}, `plan line 2: unknown key "shards"`},
		{"unknown -set key", []string{"-set", "colour=red"}, `unknown key "colour"`},
		{"-set without a value", []string{"-set", "mds"}, `"mds" wants key=value`},
		{"-set on a key the matrix sweeps", []string{"-plan", "fig2", "-quick", "-set", "mds=4"}, `-set mds=4 overrides the "mds" axis`},
		{"-set on a key that co-varies with the swept mds", []string{"-plan", "fig2", "-quick", "-set", "users=100"},
			`-set users=100 overrides the "users" axis`},
		{"-set on the cache axis of Figure 4", []string{"-plan", "fig4", "-quick", "-set", "cache=500"}, `overrides the "cache" axis`},
		{"-set on the fault schedule the availability pair sweeps", []string{"-plan", "avail", "-quick", "-set", "faults=drop@0.1:all"},
			`plan avail: -set faults=drop@0.1:all overrides the "faults" axis`},
		{"-set on the directory-hashing axis of sci", []string{"-plan", "sci", "-quick", "-set", "dirhash-at=0"},
			`overrides the "dirhash-at" axis`},
		{"embed=off on a strategy it cannot unembed", []string{"-set", "embed=off"}, "embed=off needs strategy=StaticSubtree"},
		{"dirhash-at on a strategy that never hashes", []string{"-set", "strategy=StaticSubtree", "-set", "dirhash-at=1"},
			"dirhash-at needs strategy=DynamicSubtree"},
		{"fewer closed-loop clients than nodes", []string{"-set", "clients=3", "-set", "mds=8"},
			"a closed-loop population of 3 cannot put a client on each of 8 MDS nodes"},
		{"shards on the plan with the shared OSD pool", []string{"-plan", "ablations", "-quick", "-set", "shards=2"}, `unknown key "shards"`},
		{"-set of an open-loop key on a closed loop", []string{"-set", "tenants=8"}, "tenants=8: needs an open-loop population"},
		{"an op mix of no weight", []string{"-set", "rate=0.5", "-set", "clients=2000", "-set", "mix=stat:0",
			"-set", "duration=2s", "-set", "warmup=1s"}, `mix: "stat:0" has no weight`},
		{"-set on a key the chaos budget sweeps", []string{"-plan", "chaos", "-set", "strategy=FileHash"},
			`plan chaos: -set strategy=FileHash overrides the "strategy" axis`},
		{"-set on the fault schedule the chaos budget sweeps", []string{"-plan", "chaos", "-set", "faults=drop@0.1:all"},
			`plan chaos: -set faults=drop@0.1:all overrides the "faults" axis`},
		{"endurance on a matrix plan", []string{"-plan", "namespace-aging", "-set", "checkpoint=5s"},
			"endurance runs do not support scenario acts"},
		{"soak with its own faults", []string{"-set", "rate=10", "-set", "faults=drop@0.1:all", "-set", "soak=2", "-set", "checkpoint=5s"},
			"soak generates its own fault schedule"},
		{"stray argument", []string{"fig2"}, `unexpected argument "fig2"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit status %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr does not say %q:\n%s", tc.want, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("work started before the usage error:\n%s", stdout.String())
			}
		})
	}
}

// goldens are the committed outputs scripts/regen-golden.sh writes, with
// the arguments it runs mdsim with. The third, figures_quick.txt, is
// diffed one experiment at a time by internal/harness's quick smoke
// tests, so each figure runs once in go test.
var goldens = []struct {
	file string
	args []string
}{
	{"plans_quick.txt", []string{"-plan", "library", "-quick"}},
	{"chaos_seed1.txt", []string{"-plan", "chaos", "-seed", "1"}},
}

// withoutWall drops the "(wall time ...)" lines, the one part of a report
// that real time decides.
func withoutWall(report string) []string {
	var out []string
	for _, line := range strings.SplitAfter(report, "\n") {
		if !strings.HasPrefix(line, "(wall time ") {
			out = append(out, line)
		}
	}
	return out
}

// TestGoldens: mdsim prints what testdata holds, byte for byte, bar the
// wall-time lines. Seed and network model are fixed, so a difference is
// a behaviour change: explain it and run scripts/regen-golden.sh.
func TestGoldens(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", "testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(g.args, &stdout, &stderr); code != 0 {
				t.Fatalf("mdsim %s: exit status %d\n%s", strings.Join(g.args, " "), code, stderr.String())
			}
			got, want := withoutWall(stdout.String()), withoutWall(string(data))
			if slices.Equal(got, want) {
				return
			}
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			got, want = append(got, ""), append(want, "") // "" past the end
			t.Fatalf("mdsim %s differs from testdata/%s at line %d (wall-time lines skipped):\n got: %q\nwant: %q",
				strings.Join(g.args, " "), g.file, i+1, got[i], want[i])
		})
	}
}

// TestEveryKeyIsTurned: a key that no run moves off the default plan's
// value is a constant the goldens never pin. Each key must be moved by a
// cell of some plan -list offers, at full or quick scale (the keys
// plan.CommandLine renders for the cell), or by a -set word of
// scripts/ci.sh.
func TestEveryKeyIsTurned(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join("..", "..", "scripts", "ci.sh"))
	if err != nil {
		t.Fatal(err)
	}
	turned := map[string]bool{}
	for _, m := range regexp.MustCompile(`-set ([a-z-]+)=`).FindAllStringSubmatch(string(ci), -1) {
		turned[m[1]] = true
	}
	for _, name := range []string{plan.Default().Name, harness.Chaos().ID, groupFigures, groupLibrary} {
		targets, err := resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range targets {
			for _, quick := range []bool{false, true} {
				opt := harness.Options{Seed: 1, Quick: quick}
				ps, _, err := e.Build(opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range ps {
					cells, err := p.Compile(opt)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range cells {
						args := shellFields(plan.CommandLine(c.Cfg))
						for i := 1; i < len(args); i++ {
							if args[i-1] == "-set" {
								k, _, _ := strings.Cut(args[i], "=")
								turned[k] = true
							}
						}
					}
				}
			}
		}
	}
	// An unknown key's error lists the key table, as mdsim -set shows it.
	_, err = plan.ParseSetting("?=?")
	_, known, ok := strings.Cut(err.Error(), "(known: ")
	if !ok {
		t.Fatalf("the unknown-key error lists no keys: %v", err)
	}
	for _, k := range strings.Fields(strings.TrimSuffix(known, ")")) {
		if !turned[k] {
			t.Errorf("key %s keeps the default plan's value in every plan -list offers and every -set of scripts/ci.sh: make it a constant", k)
		}
	}
}

// TestFlagSurface pins the flag set: a plan plus -set describes a run,
// so a config-mirroring flag coming back — or a new flag arriving
// unreviewed — fails here.
func TestFlagSurface(t *testing.T) {
	c, _ := parseArgs(nil, io.Discard, io.Discard)
	var got []string
	c.flags.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"checkpoint-dir", "cpuprofile", "list", "memprofile", "plan", "quick", "restore", "seed", "set", "workers"}
	if !slices.Equal(got, want) {
		t.Errorf("flag set changed:\n got %v\nwant %v", got, want)
	}
}

// TestValidInvocations: the up-front validation rejects nothing valid —
// the listing, a small default-plan run on the queued model, -set on an
// experiment and on the group of all of them (every experiment is a
// plan; the group is cut to one simulated second a run, TestGoldens runs
// it at quick length), and a soak with no checkpoint cadence, a faulted
// cell like any other, exit 0.
func TestValidInvocations(t *testing.T) {
	for name, args := range map[string][]string{
		"the listing": {"-list"},
		"the default plan reshaped": {"-set", "strategy=FileHash", "-set", "mds=2", "-set", "clients=10", "-set", "users=10",
			"-set", "duration=2s", "-set", "warmup=1s", "-set", "net=queued"},
		"-set on the failover experiment": {"-plan", "failover", "-quick", "-set", "net=queued"},
		"-set on every member of a group": {"-plan", "figures", "-quick", "-set", "net=queued", "-set", "duration=1s", "-set", "warmup=500ms"},
		"a soak without a checkpoint cadence": {"-set", "rate=0.03", "-set", "clients=2000", "-set", "soak=2",
			"-set", "duration=2s", "-set", "warmup=1s"},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Errorf("exit status %d\n%s", code, stderr.String())
			}
			if stdout.Len() == 0 {
				t.Error("no output")
			}
		})
	}
}

// TestServiceQueuesLine: the single-run report names, per kind of
// service centre, the deepest waiting line and the node it formed on; a
// closed loop of 40 clients on two nodes makes requests wait for a CPU
// and misses wait for a read disk.
func TestServiceQueuesLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-set", "mds=2", "-set", "clients=40", "-set", "users=10", "-set", "cache=50",
		"-set", "duration=2s", "-set", "warmup=1s"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d\n%s", code, stderr.String())
	}
	line := regexp.MustCompile(`(?m)^service queues: cpu max (\d+) \(mds[01]\), read disk max (\d+) \(mds[01]\), log disk max \d+ \(mds[01]\)$`)
	m := line.FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("no service queues line in:\n%s", stdout.String())
	}
	if m[1] == "0" || m[2] == "0" {
		t.Errorf("nothing ever waited for a CPU or a read disk: %s", m[0])
	}
}

// TestMechanismLines: the single-run report prints the lease plane's
// line only when leases are on and the fan-out count only when fan-out
// is on, so neither mechanism reports zeros for the other.
func TestMechanismLines(t *testing.T) {
	for _, c := range []struct {
		mechanism      string
		leases, fanout bool
	}{{"dumb", false, false}, {"leases", true, false}, {"fanout", false, true}, {"both", true, true}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-set", "rate=0.05", "-set", "clients=20000", "-set", "tenants=1", "-set", "file-skew=2",
			"-set", "duration=2s", "-set", "warmup=1s", "-set", "mechanism=" + c.mechanism, "-set", "strategy=StaticSubtree"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit status %d\n%s", c.mechanism, code, stderr.String())
		}
		out := stdout.String()
		leases := regexp.MustCompile(`(?m)^leases: ([1-9]\d*) grants, \d+ local hits, recalls \d+ sent / \d+ delivered / \d+ acked, slab\+registry [1-9]\d* B$`)
		fanout := regexp.MustCompile(`(?m)^fan-out: \d+ hot directories pushed to every peer$`)
		if got := leases.MatchString(out); got != c.leases || strings.Contains(out, "leases:") != c.leases {
			t.Errorf("mechanism=%s: a lease line with grants %t, want %t:\n%s", c.mechanism, got, c.leases, out)
		}
		if got := fanout.MatchString(out); got != c.fanout || strings.Contains(out, "fan") != c.fanout {
			t.Errorf("mechanism=%s: a fan-out line %t, want %t:\n%s", c.mechanism, got, c.fanout, out)
		}
	}
}

// TestRetriesLine: a run that arms retries without a fault schedule
// reports them on their own line, a closed loop's as an open loop's; a
// run without retries prints none, and a faulted run prints them in its
// fault block instead.
func TestRetriesLine(t *testing.T) {
	line := regexp.MustCompile(`(?m)^retries: ([1-9]\d*) \(\d+ timed out\)$`)
	for _, c := range []struct {
		args []string
		want bool
	}{
		{[]string{"-set", "retry=20ms"}, true},
		{[]string{"-set", "retry=20ms", "-set", "rate=0.5", "-set", "clients=2000"}, true},
		{nil, false},
		{[]string{"-set", "retry=20ms", "-set", "faults=drop@0.05:all"}, false},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-set", "duration=4s", "-set", "warmup=1s"}, c.args...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit status %d\n%s", c.args, code, stderr.String())
		}
		out := stdout.String()
		if got := line.MatchString(out); got != c.want || strings.Contains(out, "\nretries:") != c.want {
			t.Errorf("%v: a retries line with retries %t, want %t:\n%s", c.args, got, c.want, out)
		}
	}
}

// TestDefaultReportIsDeterministic: the single-run report prints only
// what the run determines, so one command run twice in one process
// prints the same text bar its wall-time line — the second run thaws
// the frozen base the first one cached.
func TestDefaultReportIsDeterministic(t *testing.T) {
	args := []string{"-set", "rate=0.05", "-set", "clients=20000", "-set", "tenant-skew=1",
		"-set", "file-skew=1", "-set", "duration=8s", "-set", "warmup=1s",
		"-set", "mechanism=both", "-set", "strategy=StaticSubtree"}
	report := func() []string {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit status %d\n%s", code, stderr.String())
		}
		var out []string
		for _, line := range strings.SplitAfter(stdout.String(), "\n") {
			if !strings.HasPrefix(line, "wall time: ") {
				out = append(out, line)
			}
		}
		return out
	}
	if first, second := report(), report(); !slices.Equal(first, second) {
		t.Fatalf("two runs of one command differ:\n%s\n---\n%s", strings.Join(first, ""), strings.Join(second, ""))
	}
}

// TestMemprofileFailureExits1: a heap profile that cannot be written is
// a failed run, not a silent success.
func TestMemprofileFailureExits1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	path := filepath.Join(t.TempDir(), "no-such-dir", "mem.pprof")
	if code := run([]string{"-list", "-memprofile", path}, &stdout, &stderr); code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no-such-dir") {
		t.Errorf("the error does not name the path: %q", stderr.String())
	}
}

// shellFields splits a repro line the way a shell would, for the one
// quoting form plan.CommandLine uses: single quotes, no escapes inside.
func shellFields(line string) []string {
	var out []string
	var word strings.Builder
	inWord, quoted := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case r == ' ' && !quoted:
			if inWord {
				out = append(out, word.String())
				word.Reset()
			}
			inWord = false
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, word.String())
	}
	return out
}

// TestReproLinesRoundTrip: the repro lines the chaos budget and the soak
// print (plan.CommandLine) are fed back through mdsim's own argument
// parser and compiled against the default plan; the configuration that
// comes out must be the one that failed (snapshot pointer aside — it is
// filled in at run time).
func TestReproLinesRoundTrip(t *testing.T) {
	replay := func(line string) (*invocation, cluster.Config) {
		t.Helper()
		args := shellFields(line)
		if args[0] != "mdsim" {
			t.Fatalf("not an mdsim line: %s", line)
		}
		var stderr bytes.Buffer
		c, _ := parseArgs(args[1:], io.Discard, &stderr)
		if c == nil {
			t.Fatalf("mdsim rejects its own repro line %q:\n%s", line, stderr.String())
		}
		cells, err := plan.Default().Compile(c.opt)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		return c, cells[0].Cfg
	}

	t.Run("chaos cell at K=2 on the queued model", func(t *testing.T) {
		opt := harness.Options{Seed: 7, Set: []plan.Setting{{Key: "cache", Value: "1500"}, {Key: "net", Value: "queued"}}}
		chaos, _ := harness.ByID("chaos")
		ps, _, err := chaos.Build(opt)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := ps[0].Compile(opt)
		if err != nil {
			t.Fatal(err)
		}
		failed := cells[slices.IndexFunc(cells, func(c plan.Compiled) bool { return c.Cfg.Strategy == cluster.StratLazyHybrid })].Cfg
		failed.Faults = "crash@2s:mds1,partition@1s-3s:{0|1.2}" // as shrunk
		if _, got := replay(plan.CommandLine(failed)); !reflect.DeepEqual(got, failed) {
			t.Errorf("replayed config differs\nline: %s\n got: %+v\nwant: %+v", plan.CommandLine(failed), got, failed)
		}
	})

	t.Run("soak failure with a restore path", func(t *testing.T) {
		failed := cluster.Default()
		failed.Seed = 42
		failed.NumMDS = 6
		failed.ClientsPerMDS = 40
		failed.FS.Users = 100
		failed.NetModel = "fixed"
		failed.Duration = sim.FromSeconds(8)
		failed.Warmup = sim.FromSeconds(1)
		failed.OpenLoop = &client.PopulationConfig{Clients: 20000, Rate: 0.02}
		failed.OpenLoop.Tenant.FileSkew = 0.8
		failed.Checkpoint = sim.FromSeconds(2.5)
		failed.Faults = "crash@3s-4s:mds1" // the soak's schedule, shrunk
		const snap = "/tmp/soak dir/ck-001.snap"
		line := plan.CommandLine(failed, "-restore", snap)
		c, got := replay(line)
		if !reflect.DeepEqual(got, failed) {
			t.Errorf("replayed config differs\nline: %s\n got: %+v\nwant: %+v", line, got, failed)
		}
		if c.opt.Restore != snap {
			t.Errorf("-restore %q lost in: %s", c.opt.Restore, line)
		}
	})
}

// TestRestoreOfADamagedSnapshot: a snapshot whose header says another
// run is a usage error (exit 2, before anything is built); one whose
// header is right and whose contents are not — trailer recomputed, so
// the checksum holds — is a failed run: exit 1, one error line that
// names the file and the field, no Go stack trace, in well under a
// second. The damaged files are snaptest.Damaged, among them the three
// that made the hand-written decoders panic (twice) and spin (once).
func TestRestoreOfADamagedSnapshot(t *testing.T) {
	dir := t.TempDir()
	aging := []string{"-set", "rate=1", "-set", "clients=200", "-set", "users=8", "-set", "duration=8s",
		"-set", "warmup=1s", "-set", "faults=drop@0.02:all", "-set", "checkpoint=2.5s",
		"-set", "mix=stat:55,readdir:10,chmod:5,create:12,rename:3,unlink:15"}
	mdsim := func(args ...string) (code int, stdout, stderr string) {
		var o, e bytes.Buffer
		code = run(append(slices.Clone(aging), args...), &o, &e)
		return code, o.String(), e.String()
	}
	if code, _, stderr := mdsim("-checkpoint-dir", dir); code != 0 {
		t.Fatalf("the checkpointing run exited %d:\n%s", code, stderr)
	}
	good := filepath.Join(dir, "ck-000.snap")
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := mdsim("-restore", good); code != 0 {
		t.Fatalf("the undamaged snapshot does not restore (exit %d):\n%s", code, stderr)
	}
	if code, stdout, stderr := mdsim("-restore", good, "-seed", "2"); code != 2 || stdout != "" ||
		!strings.Contains(stderr, "config hash") {
		t.Errorf("a snapshot of another run: exit %d, stdout %q; want a usage error about the config hash:\n%s", code, stdout, stderr)
	}

	for _, d := range snaptest.Damaged {
		t.Run(d.Name, func(t *testing.T) {
			bad, err := snaptest.Edit(data, d.Section, d.Edit)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, d.Name+".snap")
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			code, _, stderr := mdsim("-restore", path)
			if took := time.Since(start); took > time.Second {
				t.Errorf("took %v", took)
			}
			if code != 1 {
				t.Errorf("exit status %d, want 1", code)
			}
			line := strings.TrimSuffix(stderr, "\n")
			if !strings.HasPrefix(line, "mdsim: endure: restoring "+path+": ") ||
				!strings.Contains(line, d.Want) || strings.Contains(line, "\n") {
				t.Errorf("stderr is not one line naming the file and the field (%q):\n%s", d.Want, stderr)
			}
		})
	}
}

// TestCheckpointDrainOutlastsTheWindow: a checkpoint whose drain outlasts
// the fixed quiesce window keeps draining, at most to the next instant.
// On the aging line at a 7 s cadence a two-node cluster drains ~3 s past
// the window at its first checkpoint; the run checkpoints, and restoring
// ck-000 or ck-001 reproduces its digest. At the 2.5 s cadence neither
// one nor two nodes drain by the next instant: exit 1, one line naming
// the bound and what is left.
func TestCheckpointDrainOutlastsTheWindow(t *testing.T) {
	aging := []string{"-set", "rate=0.05", "-set", "clients=20000", "-set", "tenant-skew=1", "-set", "file-skew=1",
		"-set", "warmup=1s", "-set", "mix=stat:55,readdir:10,chmod:5,create:12,rename:3,unlink:15"}
	mdsim := func(args ...string) (code int, stdout, stderr string) {
		var o, e bytes.Buffer
		code = run(append(slices.Clone(aging), args...), &o, &e)
		return code, o.String(), e.String()
	}
	digest := regexp.MustCompile(`(?m)^digest: .*$`)
	dir := t.TempDir()
	long := []string{"-set", "mds=2", "-set", "duration=20s", "-set", "checkpoint=7s"}
	code, stdout, stderr := mdsim(append(long, "-checkpoint-dir", dir)...)
	want := digest.FindString(stdout)
	if code != 0 || want == "" {
		t.Fatalf("the checkpointing run exited %d:\n%s%s", code, stdout, stderr)
	}
	for _, ck := range []string{"ck-000.snap", "ck-001.snap"} {
		code, stdout, stderr := mdsim(append(long, "-restore", filepath.Join(dir, ck))...)
		if got := digest.FindString(stdout); code != 0 || got != want {
			t.Errorf("restoring %s: exit %d, %q, want %q\n%s", ck, code, got, want, stderr)
		}
	}
	for _, nodes := range []string{"mds=1", "mds=2"} {
		code, _, stderr := mdsim("-set", nodes, "-set", "duration=8s", "-set", "checkpoint=2.5s")
		if code != 1 || !strings.Contains(stderr, "checkpoint 0 (t=2.500s): cluster: quiesce: not drained by 5s: mds 0: ") ||
			!strings.Contains(stderr, "pending record fetches") {
			t.Errorf("%s at a 2.5 s cadence: exit %d, want 1 naming the bound and what is left:\n%s", nodes, code, stderr)
		}
	}
}

// TestDrainOutlastsTheWindow: a loaded open-loop cell of the chaos
// budget at rate=20, whose partition leaves replies queued past the
// drain window, keeps draining until the fabric is empty, so simfsck
// finds nothing in flight. With a fixed window it ended "simfsck:
// fabric: 4 messages still in flight after drain".
func TestDrainOutlastsTheWindow(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-seed", "1", "-set", "users=30", "-set", "cache=500", "-set", "faults=partition@752ms-908ms:{1.0.2|3}",
		"-set", "rate=20", "-set", "warmup=1s", "-set", "duration=5s"}
	if code := run(args, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "\nsimfsck: clean\n") {
		t.Fatalf("exit status %d, want 0 and a clean simfsck:\n%s%s", code, stdout.String(), stderr.String())
	}
}
