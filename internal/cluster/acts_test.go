package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

// actConfig is the open-loop config with a three-act timeline: a calm
// phase, a create storm against one home directory, and a cool-down.
func actConfig(strategy string) Config {
	cfg := openLoopConfig(strategy)
	cfg.Acts = []ActConfig{
		{Name: "calm", From: sim.Second, To: 2 * sim.Second},
		{Name: "storm", From: 2 * sim.Second, To: 4 * sim.Second,
			RateMul: 3, MixStat: 20, MixCreate: 80,
			Hotspot: "/home/u0000", HotFrac: 0.8, FileSkew: 1.2},
		{Name: "cool", From: 4 * sim.Second, To: 6 * sim.Second},
	}
	return cfg
}

func TestActValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(cfg *Config)
		want string
	}{
		{"no open loop", func(cfg *Config) { cfg.OpenLoop = nil }, "require the open-loop"},
		{"unnamed act", func(cfg *Config) { cfg.Acts[0].Name = "" }, "has no name"},
		{"backward window", func(cfg *Config) { cfg.Acts[0].From, cfg.Acts[0].To = 2*sim.Second, sim.Second }, "does not move forward"},
		{"past duration", func(cfg *Config) { cfg.Acts[2].To = cfg.Duration + sim.Second }, "past the run duration"},
		{"overlap", func(cfg *Config) { cfg.Acts[1].From = 1500 * sim.Millisecond }, "overlaps"},
		{"negative rate", func(cfg *Config) { cfg.Acts[1].RateMul = -1 }, "must be >= 0"},
		{"negative mix", func(cfg *Config) { cfg.Acts[1].MixStat = -5 }, "negative mix weight"},
		{"frac out of range", func(cfg *Config) { cfg.Acts[1].HotFrac = 1.5 }, "outside [0, 1]"},
		{"frac without path", func(cfg *Config) { cfg.Acts[1].Hotspot = "" }, "without a hotspot path"},
		{"unknown path", func(cfg *Config) { cfg.Acts[1].Hotspot = "/home/u9999" }, "hotspot path not in namespace"},
	}
	for _, c := range cases {
		cfg := actConfig(StratDynamic)
		c.mut(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if _, err := New(actConfig(StratDynamic)); err != nil {
		t.Fatalf("valid act config rejected: %v", err)
	}
}

// TestActFileHotspotRejectsDirOps pins the namespace-dependent check: a
// hotspot that resolves to a file cannot carry an act mix with
// directory ops (readdir/create would target a non-directory).
func TestActFileHotspotRejectsDirOps(t *testing.T) {
	cl, err := New(openLoopConfig(StratDynamic))
	if err != nil {
		t.Fatal(err)
	}
	var file *namespace.Inode
	var walk func(n *namespace.Inode)
	walk = func(n *namespace.Inode) {
		if file != nil {
			return
		}
		if !n.IsDir() {
			file = n
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(cl.Snap.Tree.Root)
	if file == nil {
		t.Fatal("generated namespace has no files")
	}

	cfg := actConfig(StratDynamic)
	cfg.Acts[1].Hotspot = file.Path()
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "is a file") {
		t.Fatalf("file hotspot with create mix accepted: %v", err)
	}
	// The same file is fine under a stat-only act mix.
	cfg.Acts[1].MixStat, cfg.Acts[1].MixCreate = 100, 0
	if _, err := New(cfg); err != nil {
		t.Fatalf("file hotspot with stat mix rejected: %v", err)
	}
}

// actDigest extends the open-loop digest with the per-act rows, so a
// divergence anywhere in the act accounting fails the comparison.
func actDigest(r *Result) string {
	s := openLoopDigest(r)
	for _, a := range r.Acts {
		s += fmt.Sprintf(" | %s@%v-%v iss=%d comp=%d p50=%x p99=%x spread=%x",
			a.Name, a.From, a.To, a.Issued, a.Completed,
			math.Float64bits(a.P50), math.Float64bits(a.P99),
			math.Float64bits(a.LoadSpread))
	}
	return s
}

// TestActDeterministicAcrossShards pins bit-reproducibility of a run
// with the full act machinery — rate, mix, hotspot, skew retarget — and
// that Config.Shards, which nothing reads, leaves it as it was.
func TestActDeterministicAcrossShards(t *testing.T) {
	cfg := actConfig(StratDynamic)
	// Determinism doesn't depend on load volume; a lighter population
	// keeps the full runs affordable under -race.
	cfg.OpenLoop.Clients = 800
	cfg.OpenLoop.Rate = 10
	eachShardCount(t, cfg, "act", func(t *testing.T, cfg Config) string {
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return actDigest(cl.Run())
	})
}

func TestActResults(t *testing.T) {
	cl, err := New(actConfig(StratDynamic))
	if err != nil {
		t.Fatal(err)
	}
	r := cl.Run()
	if len(r.Acts) != 3 {
		t.Fatalf("got %d act results, want 3", len(r.Acts))
	}
	calm, storm, cool := r.Acts[0], r.Acts[1], r.Acts[2]
	for _, a := range r.Acts {
		if a.Issued == 0 || a.Completed == 0 || a.OpsPerSec <= 0 {
			t.Fatalf("act %q has no traffic: %+v", a.Name, a)
		}
		if a.P50 <= 0 || a.P50 > a.P99 {
			t.Fatalf("act %q quantiles not ordered: p50=%v p99=%v", a.Name, a.P50, a.P99)
		}
		if a.LoadSpread < 1 {
			t.Fatalf("act %q load spread %v < 1 (max/mean)", a.Name, a.LoadSpread)
		}
	}
	if storm.Name != "storm" || calm.Name != "calm" || cool.Name != "cool" {
		t.Fatalf("act order lost: %q %q %q", calm.Name, storm.Name, cool.Name)
	}
	// The storm triples the rate over a window twice as long as calm's:
	// its arrivals must far exceed calm's (×6 nominal, wide tolerance).
	if storm.Issued < 3*calm.Issued {
		t.Fatalf("storm issued %d, calm %d — rate retarget missing", storm.Issued, calm.Issued)
	}
	// Completions inside act windows also appear in the whole-run count.
	var sum uint64
	for _, a := range r.Acts {
		sum += a.Completed
	}
	if sum > r.Completed {
		t.Fatalf("act completions %d exceed run total %d", sum, r.Completed)
	}
}

// TestActTinyRateMultiplier: a rate multiplier as small as validation
// lets through stretches an inter-arrival past what sim.Time holds; the
// arrival is capped at an hour instead, and the run completes. The hush
// parks every client that arrives in it (at 20 ops/s each, all of them
// within its second), so the lull that follows issues nothing.
func TestActTinyRateMultiplier(t *testing.T) {
	cfg := openLoopConfig(StratDynamic)
	cfg.Acts = []ActConfig{
		{Name: "hush", From: sim.Second, To: 2 * sim.Second, RateMul: 1e-300},
		{Name: "lull", From: 2 * sim.Second, To: 3 * sim.Second, RateMul: 1e-300},
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := cl.Run()
	cl.Drain()
	if err := cl.DrainCheck(); err != nil {
		t.Fatal(err)
	}
	if hush, lull := r.Acts[0], r.Acts[1]; hush.Issued == 0 || lull.Issued != 0 {
		t.Fatalf("hush issued %d, lull %d; want some, then none", hush.Issued, lull.Issued)
	}
}
