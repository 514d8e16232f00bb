package plan_test

import (
	"reflect"
	"strings"
	"testing"

	"dynmds/internal/cluster"
	"dynmds/internal/plan"
	"dynmds/internal/plan/library"
	"dynmds/internal/sim"
)

// fullSrc exercises every directive the DSL has.
const fullSrc = `plan full-demo
describe Every directive at once.
quick 0.25
fs users=40 projects=8
cluster mds=8 strategy=DynamicSubtree cache=2500 net=fixed faults=drop@0:all bucket=500ms
traffic clients=4000 rate=1.5 tenants=64 tenant-skew=0.8 file-skew=1 working-set=256 ways=4 mix=stat:70,readdir:20,create:10
matrix strategy=DynamicSubtree,FileHash
warmup 2s
duration 20s
act phase warm @2s-6s rate=x2 mix=stat:70,readdir:20,chmod:8,create:2 skew=1.2
act hotspot storm @6s-14s rate=x4 mix=stat:10,create:90 target=/home/u0000 frac=0.8
optimize ops p99 load-spread
`

// TestRoundTrip pins the fault.Schedule contract on plans: String is
// canonical, so parse→print→parse→print is a fixed point after one
// print, and the canonical form revalidates.
func TestRoundTrip(t *testing.T) {
	srcs := map[string]string{"full-demo": fullSrc}
	for _, p := range library.All() {
		srcs[p.Name] = p.String()
	}
	for name, src := range srcs {
		p1, err := plan.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		s1 := p1.String()
		p2, err := plan.Parse(s1)
		if err != nil {
			t.Fatalf("%s: reparse canonical form: %v\n%s", name, err, s1)
		}
		if err := p2.Validate(); err != nil {
			t.Fatalf("%s: canonical form does not validate: %v", name, err)
		}
		if s2 := p2.String(); s2 != s1 {
			t.Fatalf("%s: canonical form is not a fixed point:\nfirst:\n%s\nsecond:\n%s", name, s1, s2)
		}
	}
}

// TestRoundTripPreservesFields spot-checks that the full-demo survives
// the trip with its numbers intact, not just its text shape.
func TestRoundTripPreservesFields(t *testing.T) {
	p, err := plan.Parse(fullSrc)
	if err != nil {
		t.Fatal(err)
	}
	q, err := plan.Parse(p.String())
	if err != nil {
		t.Fatal(err)
	}
	cells, err := q.Compile(plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cells[0].Cfg
	if q.Quick != 0.25 || cfg.FS.Users != 40 || cfg.MDS.CacheCapacity != 2500 ||
		cfg.SeriesBucket != 500*sim.Millisecond || cfg.Faults != "drop@0:all" {
		t.Fatalf("header fields lost: %+v", cfg)
	}
	tr := cfg.OpenLoop
	if tr == nil || tr.Clients != 4000 || tr.Rate != 1.5 || tr.Tenant.TenantSkew != 0.8 ||
		tr.Ways != 4 || tr.MixCreate != 10 {
		t.Fatalf("traffic fields lost: %+v", tr)
	}
	if len(q.Acts) != 2 {
		t.Fatalf("acts lost: %+v", q.Acts)
	}
	warm, storm := q.Acts[0], q.Acts[1]
	if warm.Kind != plan.ActPhase || warm.RateMul != 2 || warm.Skew != 1.2 ||
		warm.Mix == nil || warm.Mix.Chmod != 8 {
		t.Fatalf("warm act lost fields: %+v", warm)
	}
	if storm.Kind != plan.ActHotspot || storm.Target != "/home/u0000" ||
		storm.Frac != 0.8 || storm.From != 6*sim.Second {
		t.Fatalf("storm act lost fields: %+v", storm)
	}
	// An act that never touched skew must round-trip as "unchanged".
	if storm.Skew != -1 {
		t.Fatalf("storm skew = %v, want -1 (unchanged)", storm.Skew)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no name", "duration 10s\n", "no plan directive"},
		{"unknown directive", "plan p\nbogus 1\n", "unknown directive"},
		{"duplicate singleton", "plan p\nduration 10s\nduration 20s\n", "duplicate"},
		{"bad act shape", "plan p\nact phase warm\n", "act wants"},
		{"window missing @", "plan p\nact phase warm 2s-6s\n", "must start with @"},
		{"bad rate syntax", "plan p\nact phase warm @2s-6s rate=2\n", "multiplier like x2"},
		{"zero rate", "plan p\nact phase warm @2s-6s rate=x0\n", "must be > 0"},
		{"negative skew", "plan p\nact phase warm @2s-6s skew=-1\n", "must be >= 0"},
		{"unknown mix op", "plan p\nact phase warm @2s-6s mix=open:50\n", "unknown mix op"},
		{"unknown act option", "plan p\nact phase warm @2s-6s color=red\n", "unknown act option"},
		{"bad time", "plan p\nduration 10q\n", "bad time"},
		{"key on the wrong line", "plan p\nfs mds=4\n", "unknown fs key"},
		{"key bound twice", "plan p\nfs users=4 users=5\n", "bound twice"},
		{"retired shards key", "plan p\ncluster shards=2\n", "unknown key \"shards\""},
		{"unknown net model", "plan p\ncluster net=warp\n", "unknown net"},
		{"zero rate", "plan p\ntraffic clients=10 rate=0\n", "bad rate"},
		{"too many ways", "plan p\ntraffic ways=1048577\n", "ways"},
		{"burst probability above one", "plan p\ntraffic burst-prob=1.5\n", "burst-prob"},
		{"bad matrix", "plan p\nmatrix strategy\n", "matrix wants"},
	}
	for _, c := range cases {
		if _, err := plan.Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	// Parse errors carry the 1-based line number.
	_, err := plan.Parse("plan p\n\n# comment\nbogus 1\n")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("line number lost: %v", err)
	}
}

// validBase returns a minimal valid plan for mutation tests.
func validBase() *plan.Plan {
	return &plan.Plan{
		Name: "base",
		Set:  []plan.Setting{{"rate", "1"}, {"clients", "100"}, {"warmup", "2s"}, {"duration", "10s"}},
	}
}

// rebind replaces (or, with v == "", drops) one of the plan's settings.
func rebind(p *plan.Plan, k, v string) {
	var out []plan.Setting
	for _, s := range p.Set {
		if s.Key != k {
			out = append(out, s)
		}
	}
	if v != "" {
		out = append(out, plan.Setting{Key: k, Value: v})
	}
	p.Set = out
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(p *plan.Plan)
		want string
	}{
		{"bad name", func(p *plan.Plan) { p.Name = "Bad Name" }, "lowercase"},
		{"no duration", func(p *plan.Plan) { rebind(p, "duration", "") }, "no duration"},
		{"warmup too long", func(p *plan.Plan) { rebind(p, "warmup", "10s") }, "does not fit"},
		{"bad net", func(p *plan.Plan) { rebind(p, "net", "warp") }, "unknown net"},
		{"traffic key on a closed loop", func(p *plan.Plan) { rebind(p, "rate", ""); rebind(p, "tenants", "8") }, "open-loop"},
		{"link bandwidth on the fixed model", func(p *plan.Plan) { rebind(p, "link-bw", "1e6") }, "link-bw needs net=queued"},
		{"leases on a closed loop", func(p *plan.Plan) { rebind(p, "rate", ""); rebind(p, "mechanism", "leases") }, "leases need"},
		{"fault on a node the cluster lacks", func(p *plan.Plan) { rebind(p, "faults", "crash@1s:mds9") }, "faults"},
		{"unknown axis", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{{Key: "color", Values: []string{"red"}}}
		}, "unknown matrix key"},
		{"empty axis", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{{Key: "strategy"}}
		}, "no values"},
		{"repeated axis", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{
				{Key: "mds", Values: []string{"4"}},
				{Key: "mds", Values: []string{"8"}},
			}
		}, "repeated"},
		{"bad strategy value", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{{Key: "strategy", Values: []string{"Quantum"}}}
		}, "unknown strategy"},
		{"unknown act kind", func(p *plan.Plan) {
			p.Acts = []plan.Act{{Kind: "surge", Name: "a", From: sim.Second, To: 2 * sim.Second, Skew: -1}}
		}, "unknown act kind"},
		{"acts without traffic", func(p *plan.Plan) {
			rebind(p, "rate", "")
			p.Acts = []plan.Act{{Kind: plan.ActPhase, Name: "a", From: sim.Second, To: 2 * sim.Second, Skew: -1}}
		}, "acts need an open-loop population"},
		{"backward window", func(p *plan.Plan) {
			p.Acts = []plan.Act{{Kind: plan.ActPhase, Name: "a", From: 2 * sim.Second, To: sim.Second, Skew: -1}}
		}, "does not move forward"},
		{"act past duration", func(p *plan.Plan) {
			p.Acts = []plan.Act{{Kind: plan.ActPhase, Name: "a", From: sim.Second, To: 11 * sim.Second, Skew: -1}}
		}, "past the"},
		{"overlapping acts", func(p *plan.Plan) {
			p.Acts = []plan.Act{
				{Kind: plan.ActPhase, Name: "a", From: sim.Second, To: 5 * sim.Second, Skew: -1},
				{Kind: plan.ActPhase, Name: "b", From: 4 * sim.Second, To: 6 * sim.Second, Skew: -1},
			}
		}, "overlaps"},
		{"hotspot without target", func(p *plan.Plan) {
			p.Acts = []plan.Act{{Kind: plan.ActHotspot, Name: "a", From: sim.Second, To: 2 * sim.Second, Skew: -1, Frac: 0.5}}
		}, "without a target path"},
		{"relative target", func(p *plan.Plan) {
			p.Acts = []plan.Act{{Kind: plan.ActHotspot, Name: "a", From: sim.Second, To: 2 * sim.Second, Skew: -1, Target: "home/u0", Frac: 0.5}}
		}, "not an absolute path"},
		{"frac out of range", func(p *plan.Plan) {
			p.Acts = []plan.Act{{Kind: plan.ActHotspot, Name: "a", From: sim.Second, To: 2 * sim.Second, Skew: -1, Target: "/home/u0", Frac: 1.5}}
		}, "outside (0, 1]"},
		{"phase with target", func(p *plan.Plan) {
			p.Acts = []plan.Act{{Kind: plan.ActPhase, Name: "a", From: sim.Second, To: 2 * sim.Second, Skew: -1, Target: "/home/u0"}}
		}, "take no target"},
		{"unknown metric", func(p *plan.Plan) { p.Optimize = []string{"vibes"} }, "unknown metric"},
	}
	for _, c := range cases {
		p := validBase()
		c.mut(p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if err := validBase().Validate(); err != nil {
		t.Fatalf("base plan should validate: %v", err)
	}
}

func TestCompileMatrixOrderAndLabels(t *testing.T) {
	p := validBase()
	p.Matrix = []plan.Axis{
		{Key: "mds", Values: []string{"4", "8"}},
		{Key: "strategy", Values: []string{cluster.StratDynamic, cluster.StratStatic}},
	}
	cells, err := p.Compile(plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First axis outermost, labels in axis order.
	wantLabels := []string{
		"base/mds=4/strategy=DynamicSubtree",
		"base/mds=4/strategy=StaticSubtree",
		"base/mds=8/strategy=DynamicSubtree",
		"base/mds=8/strategy=StaticSubtree",
	}
	if len(cells) != len(wantLabels) {
		t.Fatalf("compiled %d cells, want %d", len(cells), len(wantLabels))
	}
	for i, want := range wantLabels {
		if cells[i].Label != want {
			t.Fatalf("cell %d label = %q, want %q", i, cells[i].Label, want)
		}
	}
	if cells[2].Cfg.NumMDS != 8 || cells[2].Cfg.Strategy != cluster.StratDynamic {
		t.Fatalf("axis not applied: %+v", cells[2].Cfg)
	}
	if cells[0].Cfg.OpenLoop == nil || cells[0].Cfg.OpenLoop.Clients != 100 {
		t.Fatalf("traffic section not compiled: %+v", cells[0].Cfg.OpenLoop)
	}
}

func TestCompileQuickScaling(t *testing.T) {
	p := validBase()
	p.Quick = 0.5
	p.Acts = []plan.Act{{Kind: plan.ActPhase, Name: "a", From: 2 * sim.Second, To: 6 * sim.Second, Skew: -1}}
	full, err := p.Compile(plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	quick, err := p.Compile(plan.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	f, q := full[0].Cfg, quick[0].Cfg
	if f.Duration != 10*sim.Second || q.Duration != 5*sim.Second {
		t.Fatalf("duration scaling: full %v quick %v", f.Duration, q.Duration)
	}
	if f.OpenLoop.Clients != 100 || q.OpenLoop.Clients != 50 {
		t.Fatalf("client scaling: full %d quick %d", f.OpenLoop.Clients, q.OpenLoop.Clients)
	}
	if len(q.Acts) != 1 || q.Acts[0].From != sim.Second || q.Acts[0].To != 3*sim.Second {
		t.Fatalf("act window not scaled: %+v", q.Acts)
	}
	// Scaled boundaries stay on the millisecond grid.
	if q.Acts[0].From%sim.Millisecond != 0 {
		t.Fatalf("act boundary off the ms grid: %v", q.Acts[0].From)
	}
	// The seed threads through.
	opts, err := p.Compile(plan.Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if opts[0].Cfg.Seed != 99 {
		t.Fatalf("seed not applied: %d", opts[0].Cfg.Seed)
	}
}

// TestSetOverrides: Options.Set has the last word on every cell — after
// the matrix and after the Tweak, in table order whatever order it was
// given in — and a -set that cannot take effect is an error, not a
// no-op.
func TestSetOverrides(t *testing.T) {
	p := validBase()
	p.Matrix = []plan.Axis{{Key: "strategy", Values: []string{cluster.StratDynamic, cluster.StratFileHash}}}
	p.Tweak = func(cfg *cluster.Config, _ plan.Cell) { cfg.NumMDS, cfg.NetModel = 6, "fixed" }
	cells, err := p.Compile(plan.Options{Set: []plan.Setting{
		{"link-bw", "1e8"}, {"net", "queued"}, {"mds", "3"}, {"mds", "2"}, {"clients", "7"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Cfg.NumMDS != 2 || c.Cfg.NetModel != "queued" || c.Cfg.LinkBandwidth != 1e8 || c.Cfg.OpenLoop.Clients != 7 {
			t.Fatalf("%s: overrides not applied last: %+v", c.Label, c.Cfg)
		}
	}
	for name, tc := range map[string]struct {
		set  plan.Setting
		want string
	}{
		"swept key":         {plan.Setting{Key: "strategy", Value: cluster.StratStatic}, "matrix sweeps"},
		"unknown key":       {plan.Setting{Key: "colour", Value: "red"}, "unknown key"},
		"bad value":         {plan.Setting{Key: "mds", Value: "0"}, "mds=0"},
		"warmup past end":   {plan.Setting{Key: "duration", Value: "1s"}, "does not fit"},
		"link-bw, no queue": {plan.Setting{Key: "link-bw", Value: "1e6"}, "needs net=queued"},
	} {
		if _, err := p.Compile(plan.Options{Set: []plan.Setting{tc.set}}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", name, err, tc.want)
		}
	}
	// A closed-loop plan takes the closed-loop keys, turns open loop when
	// given a rate, and rejects open-loop keys until then.
	closed := &plan.Plan{Name: "closed", Set: []plan.Setting{{"mds", "4"}, {"duration", "10s"}}}
	cells, err = closed.Compile(plan.Options{Set: []plan.Setting{{"clients", "120"}}})
	if err != nil || cells[0].Cfg.ClientsPerMDS != 30 || cells[0].Cfg.OpenLoop != nil {
		t.Fatalf("closed-loop clients: %v %+v", err, cells)
	}
	// 10 clients on 4 nodes run as 8; 3 cannot run at all.
	cells, err = closed.Compile(plan.Options{Set: []plan.Setting{{"clients", "10"}}})
	if err != nil || cells[0].Cfg.ClientsPerMDS != 2 {
		t.Fatalf("closed-loop clients are not rounded down to a multiple of mds: %v %+v", err, cells)
	}
	if _, err := closed.Compile(plan.Options{Set: []plan.Setting{{"clients", "3"}}}); err == nil ||
		!strings.Contains(err.Error(), "population of 3") || !strings.Contains(err.Error(), "4 MDS") {
		t.Fatalf("3 closed-loop clients on 4 nodes: err = %v, want both numbers named", err)
	}
	cells, err = closed.Compile(plan.Options{Set: []plan.Setting{{"clients", "1e6"}, {"rate", "0.01"}, {"diurnal", "0.3"}}})
	if err != nil || cells[0].Cfg.OpenLoop == nil || cells[0].Cfg.OpenLoop.Clients != 1000000 || cells[0].Cfg.OpenLoop.DiurnalAmp != 0.3 {
		t.Fatalf("rate did not open the loop: %v %+v", err, cells)
	}
	if _, err := closed.Compile(plan.Options{Set: []plan.Setting{{"tenants", "8"}}}); err == nil || !strings.Contains(err.Error(), "open-loop") {
		t.Fatalf("tenants on a closed loop: err = %v", err)
	}
}

// TestCommandLineRoundTrip: the repro renderer and the key table are
// inverses — applying the -set list CommandLine prints to the default
// plan rebuilds the config, for closed- and open-loop runs.
func TestCommandLineRoundTrip(t *testing.T) {
	for _, set := range [][]plan.Setting{
		nil,
		{{"mds", "8"}},
		{{"mds", "3"}, {"clients", "30"}, {"users", "30"}, {"cache", "500"}, {"strategy", cluster.StratFileHash},
			{"net", "queued"}, {"link-bw", "1e8"}, {"faults", "partition@1s-2s:{0|1.2},drop@0.02:all"},
			{"warmup", "1s"}, {"duration", "4500ms"}, {"mechanism", "fanout"}, {"bucket", "20ms"}, {"projects", "3"}},
		{{"rate", "0.05"}, {"clients", "20000"}, {"tenants", "32"}, {"tenant-skew", "1"}, {"file-skew", "0.8"},
			{"working-set", "64"}, {"ways", "4"}, {"mix", "stat:55,unlink:15,create:30"}, {"diurnal", "0.3"},
			{"burst-prob", "0.05"}, {"mechanism", "both"}},
	} {
		want, err := plan.Default().Compile(plan.Options{Seed: 7, Set: set})
		if err != nil {
			t.Fatal(err)
		}
		line := plan.CommandLine(want[0].Cfg)
		args := strings.Fields(strings.NewReplacer("'", "").Replace(line))
		if args[0] != "mdsim" || args[1] != "-seed" || args[2] != "7" {
			t.Fatalf("unexpected head: %s", line)
		}
		var back []plan.Setting
		for i := 3; i < len(args); i += 2 {
			st, err := plan.ParseSetting(args[i+1])
			if args[i] != "-set" || err != nil {
				t.Fatalf("bad argument %q %q (%v) in: %s", args[i], args[i+1], err, line)
			}
			back = append(back, st)
		}
		if len(back) != len(set) {
			t.Errorf("line carries %d settings, the run deviates on %d: %s", len(back), len(set), line)
		}
		got, err := plan.Default().Compile(plan.Options{Seed: 7, Set: back})
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if !reflect.DeepEqual(got[0].Cfg, want[0].Cfg) {
			t.Errorf("replay differs\nline: %s\n got: %+v\nwant: %+v", line, got[0].Cfg, want[0].Cfg)
		}
	}
}
