package plan_test

import (
	"fmt"
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
matrix diurnal=0,0.3 burst-prob=0,0.05
warmup 2s
duration 20s
quick traffic clients=2000
quick matrix diurnal=0,0.1 burst-prob=0,0.01
quick duration 16s
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
	if len(cells) != 4 || cells[3].Cfg.OpenLoop.DiurnalAmp != 0.3 || cells[3].Cfg.OpenLoop.BurstProb != 0.05 {
		t.Fatalf("co-varying axis lost: %d cells, last %+v", len(cells), cells[len(cells)-1].Cfg.OpenLoop)
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
	if warm.Hotspot != "" || warm.RateMul != 2 || warm.FileSkew != 1.2 || warm.MixChmod != 8 {
		t.Fatalf("warm act lost fields: %+v", warm)
	}
	if storm.Hotspot != "/home/u0000" || storm.HotFrac != 0.8 || storm.From != 6*sim.Second {
		t.Fatalf("storm act lost fields: %+v", storm)
	}
	// An act that never touched skew must round-trip as "unchanged".
	if storm.FileSkew != -1 {
		t.Fatalf("storm skew = %v, want -1 (unchanged)", storm.FileSkew)
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
		{"unknown act kind", "plan p\nact surge a @1s-2s\n", "unknown act kind"},
		{"hotspot without target", "plan p\nact hotspot a @1s-2s frac=0.5\n", "a hotspot act takes a target=path"},
		{"phase with target", "plan p\nact phase a @1s-2s target=/home/u0\n", "a phase act none"},
		{"act mix of no weight", "plan p\nact phase a @1s-2s mix=stat:0,create:0\n", "has no weight"},
		{"traffic mix of no weight", "plan p\ntraffic rate=1 mix=stat:0\n", "has no weight"},
		{"bad time", "plan p\nduration 10q\n", "bad time"},
		{"key on the wrong line", "plan p\nfs mds=4\n", "unknown fs key"},
		{"key bound twice", "plan p\nfs users=4 users=5\n", "bound twice"},
		{"retired shards key", "plan p\ncluster shards=2\n", "unknown key \"shards\""},
		{"unknown net model", "plan p\ncluster net=warp\n", "unknown net"},
		{"zero rate", "plan p\ntraffic clients=10 rate=0\n", "bad rate"},
		{"too many ways", "plan p\ntraffic ways=1048577\n", "ways"},
		{"burst probability above one", "plan p\ntraffic burst-prob=1.5\n", "burst-prob"},
		{"bad matrix", "plan p\nmatrix strategy\n", "matrix wants"},
		{"second quick factor", "plan p\nquick 0.5\nquick 1\n", "duplicate quick"},
		{"quick line bound twice", "plan p\nquick fs users=4\nquick fs users=5\n", "duplicate quick fs"},
		{"act as a quick line", "plan p\nquick act phase warm @1s-2s\n", "bad number"},
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
		{"bad net", func(p *plan.Plan) { rebind(p, "net", "warp") }, "unknown net"},
		{"traffic key on a closed loop", func(p *plan.Plan) { rebind(p, "rate", ""); rebind(p, "tenants", "8") }, "open-loop"},
		{"redelegate-first with the balancer off", func(p *plan.Plan) { rebind(p, "balance", "off"); rebind(p, "redelegate-first", "off") }, "needs the balancer"},
		{"preempt-at with traffic control off", func(p *plan.Plan) { rebind(p, "replicate-at", "off"); rebind(p, "preempt-at", "50") }, "needs traffic control"},
		{"unknown axis", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{{{Key: "color", Values: []string{"red"}}}}
		}, "unknown matrix key"},
		{"empty axis", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{{{Key: "strategy"}}}
		}, "no values"},
		{"repeated axis", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{
				{{Key: "mds", Values: []string{"4"}}},
				{{Key: "mds", Values: []string{"8"}}},
			}
		}, "repeated"},
		{"a key in two axes", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{
				{{Key: "mds", Values: []string{"4", "8"}}, {Key: "users", Values: []string{"40", "80"}}},
				{{Key: "users", Values: []string{"20"}}},
			}
		}, "repeated"},
		{"co-varying keys of unequal length", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{{{Key: "mds", Values: []string{"4", "8"}}, {Key: "users", Values: []string{"40"}}}}
		}, "as many values"},
		{"a quick matrix that replaces no axis", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{{{Key: "mds", Values: []string{"4", "8"}}, {Key: "users", Values: []string{"40", "80"}}}}
			p.QuickMatrix = []plan.Axis{{{Key: "mds", Values: []string{"2"}}}}
		}, "replaces no axis"},
		{"unknown key in a co-varying axis", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{{{Key: "mds", Values: []string{"4", "8"}}, {Key: "colour", Values: []string{"red", "blue"}}}}
		}, "unknown matrix key"},
		{"bad co-varying value", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{{{Key: "mds", Values: []string{"4", "8"}}, {Key: "users", Values: []string{"40", "0"}}}}
		}, "users"},
		{"bad strategy value", func(p *plan.Plan) {
			p.Matrix = []plan.Axis{{{Key: "strategy", Values: []string{"Quantum"}}}}
		}, "unknown strategy"},
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

// rulebookSrc is a valid open-loop plan with a three-act timeline: a
// calm phase, a create storm against one home directory, a cool-down.
const rulebookSrc = `plan rules
fs users=8
traffic clients=200 rate=2
warmup 1s
duration 6s
act phase calm @1s-2s
act hotspot storm @2s-4s rate=x3 mix=stat:20,create:80 skew=1.2 target=/home/u0000 frac=0.8
act phase cool @4s-6s
`

// checkpointed drops the plan's acts, gives it a 2.5s checkpoint
// cadence, then rebinds k to v.
func checkpointed(p *plan.Plan, k, v string) {
	p.Acts = nil
	rebind(p, "checkpoint", "2.5s")
	rebind(p, k, v)
}

// TestRulebook: cluster.Config.Validate is the one rulebook for a run,
// so the plan compiler and cluster.New refuse each bad config in the
// same words — the plan's error ends with the cluster's, bar its
// "cluster: " prefix. The namespace's rules are cluster's own tests'.
func TestRulebook(t *testing.T) {
	cases := []struct {
		name string
		mut  func(p *plan.Plan)
		want string
	}{
		{"more MDSs than a memo can name", func(p *plan.Plan) { rebind(p, "mds", "65537") }, "the 32768 a client's location hint can name"},
		{"more MDSs than a hint can name", func(p *plan.Plan) { rebind(p, "mds", "32769") }, "the 32768 a client's location hint can name"},
		{"more MDSs than a replica set can name", func(p *plan.Plan) { rebind(p, "mds", "65") }, "the 64 a replica set can name"},
		{"a cache past its references", func(p *plan.Plan) { rebind(p, "cache", "70000") }, "the 65408 a node's cache can hold"},
		{"a journal past its positions", func(p *plan.Plan) { rebind(p, "log", "16777217") }, "the 16777216 a node's journal can hold"},
		{"warmup too long", func(p *plan.Plan) { rebind(p, "warmup", "6s") }, "does not fit"},
		{"embed=off on a dynamic partition", func(p *plan.Plan) { rebind(p, "embed", "off") }, "embed=off needs strategy=StaticSubtree"},
		{"dirhash-at on a static partition", func(p *plan.Plan) {
			rebind(p, "strategy", "StaticSubtree")
			rebind(p, "dirhash-at", "64")
		}, "dirhash-at needs strategy=DynamicSubtree"},
		{"leases on a closed loop", func(p *plan.Plan) {
			rebind(p, "rate", "")
			rebind(p, "mechanism", "leases")
			p.Acts = nil
		}, "client leases need"},
		{"a closed-loop workload on an open loop", func(p *plan.Plan) { rebind(p, "workload", "shift") }, "needs a closed loop"},
		{"fault on a node the cluster lacks", func(p *plan.Plan) { rebind(p, "faults", "crash@1s:mds9") }, "faults"},
		{"acts on a closed loop", func(p *plan.Plan) { rebind(p, "rate", "") }, "acts need an open-loop population"},
		{"unnamed act", func(p *plan.Plan) { p.Acts[0].Name = "" }, "act 0 has no name"},
		{"backward window", func(p *plan.Plan) { p.Acts[0].From, p.Acts[0].To = 2*sim.Second, sim.Second }, "does not move forward"},
		{"act past duration", func(p *plan.Plan) { p.Acts[2].To = 7 * sim.Second }, "past the 6s duration"},
		{"overlapping acts", func(p *plan.Plan) { p.Acts[1].From = 1500 * sim.Millisecond }, "overlaps act \"calm\""},
		{"negative rate", func(p *plan.Plan) { p.Acts[1].RateMul = -1 }, "rate multiplier -1 is negative"},
		{"negative mix", func(p *plan.Plan) { p.Acts[1].MixStat = -5 }, "negative mix weight"},
		{"frac out of range", func(p *plan.Plan) { p.Acts[1].HotFrac = 1.5 }, "outside (0, 1]"},
		{"frac without path", func(p *plan.Plan) { p.Acts[1].Hotspot = "" }, "a target path and a fraction together"},
		{"path without frac", func(p *plan.Plan) { p.Acts[1].HotFrac = 0 }, "a target path and a fraction together"},
		{"relative target", func(p *plan.Plan) { p.Acts[1].Hotspot = "home/u0000" }, "not an absolute path"},
		{"cadence inside the quiesce drain", func(p *plan.Plan) { checkpointed(p, "checkpoint", "2s") }, "must exceed the 2s quiesce drain"},
		{"cadence past the duration", func(p *plan.Plan) { checkpointed(p, "checkpoint", "7s") }, "shorter than the 7s checkpoint cadence"},
		{"cadence on a closed loop", func(p *plan.Plan) { checkpointed(p, "rate", "") }, "need the open-loop traffic plane"},
		{"cadence with acts", func(p *plan.Plan) { rebind(p, "checkpoint", "2.5s") }, "do not support scenario acts"},
		{"cadence on the shared OSD pool", func(p *plan.Plan) { checkpointed(p, "osds", "4") }, "do not support a shared OSD pool"},
		{"cadence on LazyHybrid", func(p *plan.Plan) { checkpointed(p, "strategy", "LazyHybrid") }, "do not support the LazyHybrid strategy"},
		{"cadence on unembedded inodes", func(p *plan.Plan) {
			checkpointed(p, "strategy", "StaticSubtree")
			rebind(p, "embed", "off")
		}, "do not support embed=off"},
	}
	parse := func() *plan.Plan {
		p, err := plan.Parse(rulebookSrc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, c := range cases {
		p := parse()
		c.mut(p)
		_, perr := p.Compile(plan.Options{})
		cfg, err := p.Bound()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, cerr := cluster.New(cfg)
		if perr == nil || cerr == nil {
			t.Errorf("%s: plan err = %v, cluster.New err = %v; want both refused", c.name, perr, cerr)
			continue
		}
		if !strings.Contains(cerr.Error(), c.want) || !strings.HasSuffix(perr.Error(), strings.TrimPrefix(cerr.Error(), "cluster: ")) {
			t.Errorf("%s: plan says %q, cluster.New says %q; want one wording, mentioning %q", c.name, perr, cerr, c.want)
		}
	}
	p := parse()
	if _, err := p.Compile(plan.Options{}); err != nil {
		t.Fatalf("the base plan is refused: %v", err)
	}
	cfg, _ := p.Bound()
	if _, err := cluster.New(cfg); err != nil {
		t.Fatalf("the base config is refused: %v", err)
	}
}

func TestCompileMatrixOrderAndLabels(t *testing.T) {
	p := validBase()
	p.Matrix = []plan.Axis{
		{{Key: "mds", Values: []string{"4", "8"}}},
		{{Key: "strategy", Values: []string{cluster.StratDynamic, cluster.StratStatic}}},
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

// TestCompileCovaryingAndQuickLines: a co-varying axis binds its keys
// together, in key-table order whatever order they were written in (so
// clients spreads over the cell's mds), and the quick lines rebind keys
// and replace an axis's values under Options.Quick only.
func TestCompileCovaryingAndQuickLines(t *testing.T) {
	p, err := plan.Parse(`plan covary
quick 1
cluster cache=500
matrix clients=40,90 mds=2,3
warmup 1s
duration 4s
quick cluster cache=250
quick matrix clients=10,60 mds=1,3
quick duration 2s
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		quick        bool
		label        string
		mds, perMDS  []int
		cache        int
		warm, length sim.Time
	}{
		{false, "covary/clients=40/mds=2", []int{2, 3}, []int{20, 30}, 500, sim.Second, 4 * sim.Second},
		{true, "covary/clients=10/mds=1", []int{1, 3}, []int{10, 20}, 250, sim.Second, 2 * sim.Second},
	} {
		cells, err := p.Compile(plan.Options{Quick: tc.quick})
		if err != nil || len(cells) != 2 || cells[0].Label != tc.label {
			t.Fatalf("quick=%v: %v, %d cells, first %q", tc.quick, err, len(cells), cells[0].Label)
		}
		for i, c := range cells {
			cfg := c.Cfg
			if cfg.NumMDS != tc.mds[i] || cfg.ClientsPerMDS != tc.perMDS[i] || cfg.MDS.CacheCapacity != tc.cache ||
				cfg.MDS.Storage.LogCapacity != tc.cache || cfg.Warmup != tc.warm || cfg.Duration != tc.length {
				t.Errorf("quick=%v, %s: mds %d, %d/mds, cache %d, log %d, %v-%v", tc.quick, c.Label,
					cfg.NumMDS, cfg.ClientsPerMDS, cfg.MDS.CacheCapacity, cfg.MDS.Storage.LogCapacity, cfg.Warmup, cfg.Duration)
			}
		}
	}
	if _, err := p.Compile(plan.Options{Quick: true, Set: []plan.Setting{{Key: "clients", Value: "6"}}}); err == nil ||
		!strings.Contains(err.Error(), "matrix sweeps") {
		t.Errorf("-set on a co-varying key: err = %v", err)
	}
}

func TestCompileQuickScaling(t *testing.T) {
	p := validBase()
	p.Quick = 0.5
	p.Acts = []cluster.ActConfig{{Name: "a", From: 2 * sim.Second, To: 6 * sim.Second, FileSkew: -1}}
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
// the plan's own lines and the matrix, in table order whatever order it
// was given in — and a -set that cannot take effect is an error, not a
// no-op.
func TestSetOverrides(t *testing.T) {
	p := validBase()
	p.Matrix = []plan.Axis{{{Key: "strategy", Values: []string{cluster.StratDynamic, cluster.StratFileHash}}}}
	rebind(p, "mds", "6")
	rebind(p, "net", "fixed")
	cells, err := p.Compile(plan.Options{Set: []plan.Setting{
		{"net", "queued"}, {"mds", "3"}, {"mds", "2"}, {"clients", "7"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Cfg.NumMDS != 2 || c.Cfg.NetModel != "queued" || c.Cfg.OpenLoop.Clients != 7 {
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
		"embed=off dynamic": {plan.Setting{Key: "embed", Value: "off"}, "embed=off needs"},
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
			{"net", "queued"}, {"faults", "partition@1s-2s:{0|1.2},drop@0.02:all"},
			{"warmup", "1s"}, {"duration", "4500ms"}, {"mechanism", "fanout"}, {"bucket", "20ms"}, {"projects", "3"}},
		{{"rate", "0.05"}, {"clients", "20000"}, {"tenants", "32"}, {"tenant-skew", "1"}, {"file-skew", "0.8"},
			{"working-set", "64"}, {"ways", "4"}, {"mix", "stat:55,unlink:15,create:30"}, {"diurnal", "0.3"},
			{"burst-prob", "0.05"}, {"mechanism", "both"}},
		{{"cache", "2500"}, {"log", "2000"}, {"think", "15ms"}, {"ways", "512"}, {"retry", "200ms"}, {"workload", "shift"},
			{"shift-at", "8s"}, {"balance", "2s"}, {"redelegate-first", "off"}, {"replicate-at", "1e9"}, {"preempt-at", "50"},
			{"osds", "16"}, {"prefetch", "hot"}, {"strategy", cluster.StratStatic}, {"embed", "off"}},
		{{"balance", "off"}, {"replicate-at", "off"}, {"workload", "flashcrowd"}, {"dirhash-at", "256"}},
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

// TestOneValueAxisIsASet pins relation (e) between runs: a matrix axis
// of one value compiles to the config, and runs to the Result, that
// the same plan without the axis gives under a -set of that value —
// field for field bar wall times, over three seeds, closed and open
// loop.
func TestOneValueAxisIsASet(t *testing.T) {
	const src = `plan relation-e
fs users=20
cluster mds=3 strategy=DynamicSubtree
traffic clients=%s
%swarmup 1s
duration 3s
`
	for _, loop := range []struct{ name, traffic string }{
		{"closed", "30"},
		{"open", "3000 rate=2 tenants=8"},
	} {
		compile := func(matrix string, opt plan.Options) cluster.Config {
			t.Helper()
			p, err := plan.Parse(fmt.Sprintf(src, loop.traffic, matrix))
			if err != nil {
				t.Fatal(err)
			}
			cells, err := p.Compile(opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != 1 {
				t.Fatalf("%d cells, want 1", len(cells))
			}
			return cells[0].Cfg
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", loop.name, seed), func(t *testing.T) {
				axis := compile("matrix cache=2500\n", plan.Options{Seed: seed})
				set := compile("", plan.Options{Seed: seed, Set: []plan.Setting{{Key: "cache", Value: "2500"}}})
				if axis.MDS.CacheCapacity != 2500 || (axis.OpenLoop != nil) != (loop.name == "open") {
					t.Fatalf("cache %d, open loop %v: the plan does not run what it names", axis.MDS.CacheCapacity, axis.OpenLoop != nil)
				}
				if !reflect.DeepEqual(axis, set) {
					t.Fatalf("configs differ:\naxis %+v\n-set %+v", axis, set)
				}
				run := func(cfg cluster.Config) reflect.Value {
					cl, err := cluster.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					r := cl.Run()
					if r.MeasuredOps == 0 {
						t.Fatal("the run measured no ops")
					}
					r.SetupWall, r.RunWall = 0, 0
					return reflect.ValueOf(r).Elem()
				}
				a, s := run(axis), run(set)
				for i := 0; i < a.NumField(); i++ {
					if af, sf := a.Field(i).Interface(), s.Field(i).Interface(); !reflect.DeepEqual(af, sf) {
						t.Errorf("Result.%s: axis %v, -set %v", a.Type().Field(i).Name, af, sf)
					}
				}
			})
		}
	}
}
