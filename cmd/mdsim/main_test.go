package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// badPlans are plan DSL files that parse or compile to an error: an
// unknown act kind, overlapping phase acts, a zero rate multiplier, and
// a hotspot target that is not in the namespace.
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
		{"unknown net model", []string{"-net-model", "bogus", "-fig", "2", "-quick"}},
		{"unknown fault kind", []string{"-faults", "explode@1s:mds0"}},
		{"negative shards", []string{"-shards", "-3"}},
		{"leases without open loop", []string{"-leases"}},
		{"checkpoint cadence without endure", []string{"-checkpoint-every", "2"}},
		{"endure with zero cadence", []string{"-open-loop", "1000", "-endure", "-checkpoint-every", "0"}},
		{"endure without open loop", []string{"-endure", "-checkpoint-every", "2"}},
		{"plan: unknown act kind", []string{"-plan", planFile("bad-kind"), "-quick"}},
		{"plan: overlapping phases", []string{"-plan", planFile("bad-overlap"), "-quick"}},
		{"plan: zero rate", []string{"-plan", planFile("bad-rate"), "-quick"}},
		{"plan: hotspot not in namespace", []string{"-plan", planFile("bad-hotspot"), "-quick"}},
		{"unknown plan name", []string{"-plan", "no-such-plan"}},
		{"warmup equals duration", []string{"-dur", "5", "-warmup", "5"}},
		{"default warmup past duration", []string{"-open-loop", "1000", "-dur", "3"}},
		{"link bandwidth on the fixed model", []string{"-link-bw", "1e6"}},
		{"unknown strategy", []string{"-strategy", "Bogus"}},
		{"unknown figure", []string{"-fig", "99", "-quick"}},
		{"empty cluster", []string{"-mds", "0"}},
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

// TestFlagSurface: the legacy report flags stay removed — go run ./bench
// is the only measurement path.
func TestFlagSurface(t *testing.T) {
	for _, name := range []string{
		"bench-json", "bench7-json", "bench9-json", "bench10-json", "plan-json", "share-snapshots",
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-" + name + "=x"}, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), "flag provided but not defined") {
			t.Errorf("-%s is defined again (exit %d):\n%s", name, code, stderr.String())
		}
	}
}

// TestValidInvocations: the up-front validation rejects nothing valid —
// the listings and a small custom run on the queued model exit 0.
func TestValidInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-list"},
		{"-list-plans"},
		{"-strategy", "FileHash", "-mds", "2", "-clients", "5", "-users", "10", "-dur", "2", "-warmup", "1",
			"-net-model", "queued", "-link-bw", "1e8"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Errorf("%v: exit status %d\n%s", args, code, stderr.String())
		}
		if stdout.Len() == 0 {
			t.Errorf("%v: no output", args)
		}
	}
}
