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
	"dynmds/internal/endure"
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
// error — exit status 2 and a message on stderr — raised before any
// simulation runs, so stdout stays empty.
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
	}{
		{"unknown net model", []string{"-set", "net=bogus", "-plan", "fig2", "-quick"}},
		{"unknown fault kind", []string{"-set", "faults=explode@1s:mds0"}},
		{"negative shards", []string{"-set", "shards=-3"}},
		{"leases without open loop", []string{"-set", "mechanism=leases"}},
		{"checkpoint flags without a cadence", []string{"-set", "rate=10", "-checkpoint-dir", dir}},
		{"endure with zero cadence", []string{"-set", "rate=10", "-set", "clients=1000", "-soak-cycles", "2", "-checkpoint-every", "0"}},
		{"endure without open loop", []string{"-checkpoint-every", "2.5"}},
		{"plan: unknown act kind", []string{"-plan", planFile("bad-kind"), "-quick"}},
		{"plan: overlapping phases", []string{"-plan", planFile("bad-overlap"), "-quick"}},
		{"plan: zero rate", []string{"-plan", planFile("bad-rate"), "-quick"}},
		{"plan: hotspot not in namespace", []string{"-plan", planFile("bad-hotspot"), "-quick"}},
		{"unknown plan name", []string{"-plan", "no-such-plan"}},
		{"warmup equals duration", []string{"-set", "duration=5s", "-set", "warmup=5s"}},
		{"default warmup past duration", []string{"-set", "rate=10", "-set", "clients=1000", "-set", "duration=3s"}},
		{"link bandwidth on the fixed model", []string{"-set", "link-bw=1e6"}},
		{"unknown strategy", []string{"-set", "strategy=Bogus"}},
		{"unknown figure", []string{"-plan", "fig99", "-quick"}},
		{"empty cluster", []string{"-set", "mds=0"}},

		{"plan: negative shards", []string{"-plan", planFile("bad-shards")}},
		{"unknown -set key", []string{"-set", "colour=red"}},
		{"-set without a value", []string{"-set", "mds"}},
		{"-set on a key the matrix sweeps", []string{"-plan", "fig2", "-quick", "-set", "mds=4"}},
		{"fewer closed-loop clients than nodes", []string{"-set", "clients=3", "-set", "mds=8"}},
		{"shards on the plan with the shared OSD pool", []string{"-plan", "ablations", "-quick", "-set", "shards=2"}},
		{"-set of an open-loop key on a closed loop", []string{"-set", "tenants=8"}},
		{"-set on a key the chaos budget sweeps", []string{"-chaos-runs", "1", "-set", "strategy=FileHash"}},
		{"chaos budget with a plan", []string{"-chaos-runs", "1", "-plan", "fig2"}},
		{"endurance on a matrix plan", []string{"-plan", "namespace-aging", "-checkpoint-every", "5"}},
		{"soak with its own faults", []string{"-set", "rate=10", "-set", "faults=drop@0.1:all", "-soak-cycles", "2", "-checkpoint-every", "5"}},
		{"stray argument", []string{"fig2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit status %d, want 2", code)
			}
			if stderr.Len() == 0 {
				t.Error("no message on stderr")
			}
			if stdout.Len() != 0 {
				t.Errorf("work started before the usage error:\n%s", stdout.String())
			}
		})
	}
}

// TestFlagSurface pins the flag set: a plan plus -set describes a run,
// so a config-mirroring flag coming back — or a new flag arriving
// unreviewed — fails here.
func TestFlagSurface(t *testing.T) {
	c, _ := parseArgs(nil, io.Discard, io.Discard)
	var got []string
	c.flags.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"chaos-intensity", "chaos-runs", "checkpoint-dir", "checkpoint-every",
		"cpuprofile", "list", "memprofile", "plan", "quick", "restore", "seed", "set",
		"soak-cycles", "workers",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flag set changed:\n got %v\nwant %v", got, want)
	}
}

// TestValidInvocations: the up-front validation rejects nothing valid —
// the listing, a small default-plan run on the queued model, and -set on
// an experiment and on the group of all of them (every experiment is a
// plan; the group is cut to two simulated seconds a run) exit 0.
func TestValidInvocations(t *testing.T) {
	for name, args := range map[string][]string{
		"the listing": {"-list"},
		"the default plan reshaped": {"-set", "strategy=FileHash", "-set", "mds=2", "-set", "clients=10", "-set", "users=10",
			"-set", "duration=2s", "-set", "warmup=1s", "-set", "net=queued", "-set", "link-bw=1e8"},
		"-set on the failover experiment": {"-plan", "failover", "-quick", "-set", "net=queued"},
		"-set on every member of a group": {"-plan", "figures", "-quick", "-set", "net=queued", "-set", "duration=2s", "-set", "warmup=1s"},
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
// print are fed back through mdsim's own argument parser and compiled;
// the configuration that comes out must be the one that failed
// (snapshot pointer aside — it is filled in at run time).
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
		cfg, err := c.oneRun()
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		return c, cfg
	}

	t.Run("chaos cell at K=2 on the queued model", func(t *testing.T) {
		opt := harness.ChaosOptions{Seed: 7,
			Set: []plan.Setting{{Key: "cache", Value: "1500"}, {Key: "net", Value: "queued"}}}
		failed, err := harness.ChaosConfig(opt, cluster.StratLazyHybrid, "crash@2s:mds1,partition@1s-3s:{0|1.2}")
		if err != nil {
			t.Fatal(err)
		}
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
		opt := endure.Options{Cluster: failed, Every: sim.FromSeconds(2.5)}
		const shrunk, snap = "crash@3s-4s:mds1", "/tmp/soak dir/ck-001.snap"
		line := endure.ReproLine(&opt, shrunk, snap)
		c, got := replay(line)
		failed.Faults = shrunk
		if !reflect.DeepEqual(got, failed) {
			t.Errorf("replayed config differs\nline: %s\n got: %+v\nwant: %+v", line, got, failed)
		}
		if c.every != 2.5 || c.restore != snap {
			t.Errorf("endurance flags lost: -checkpoint-every %g -restore %q in: %s", c.every, c.restore, line)
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
		"-set", "warmup=1s", "-set", "faults=drop@0.02:all", "-checkpoint-every", "2.5"}
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
