// Package plan is the declarative scenario engine: an experiment is a
// Plan — namespace spec, cluster knobs, traffic spec, a parameter
// matrix, and a timeline of acts — validated upfront like a fault
// schedule and compiled into the cluster.Config sweep the harness
// already knows how to run. Plans round-trip through a small
// line-oriented text DSL (see Parse/String), so a scenario is one
// readable file rather than a hand-coded Go function.
//
// A plan's lifecycle is Parse (or Go literal) → Validate → Compile →
// harness sweep. Everything that can be rejected before simulation is:
// unknown act kinds, overlapping act windows, non-positive rates,
// unknown matrix keys or metrics. The one namespace-dependent check —
// an act's hotspot path resolving to a real inode — happens in
// cluster.New, still before any event runs.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"dynmds/internal/client"
	"dynmds/internal/cluster"
	"dynmds/internal/mds"
	"dynmds/internal/net"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// Act kinds.
const (
	// ActPhase retargets the traffic plane's rate/mix/skew for a window.
	ActPhase = "phase"
	// ActHotspot is a phase that additionally concentrates a fraction of
	// target draws on one namespace path.
	ActHotspot = "hotspot"
)

// Metrics a plan may declare under "optimize" (report emphasis; the
// executor always records the full set).
var knownMetrics = map[string]bool{
	"ops": true, "p50": true, "p99": true, "p999": true,
	"load-spread": true, "hit": true, "fwd": true, "hot": true,
}

// Matrix keys the compiler applies itself; anything else needs a Tweak.
var knownAxes = map[string]bool{
	"strategy": true, "mds": true, "clients": true, "rate": true,
	"cache": true, "tenants": true, "tenant-skew": true, "file-skew": true,
	"shards": true, "mechanism": true,
}

// Plan is one declarative scenario.
type Plan struct {
	// Name identifies the plan (library key, -plan argument, report
	// label prefix). Lowercase letters, digits and dashes.
	Name string
	// Describe is the one-line human description.
	Describe string
	// Quick scales simulated times and client counts when compiled with
	// Options.Quick; 0 means the default 0.5.
	Quick float64

	FS      FSSpec
	Cluster ClusterSpec
	// Traffic, when non-nil, drives the run through the open-loop
	// traffic plane. Required for plans with acts.
	Traffic *TrafficSpec

	// Matrix is the parameter sweep: the cartesian product of the axes,
	// first axis outermost. Each cell compiles to one run.
	Matrix []Axis

	Warmup   sim.Time
	Duration sim.Time

	// Acts is the scenario timeline: ordered, non-overlapping windows
	// within [0, Duration].
	Acts []Act

	// Optimize names the metrics the plan is about; the report leads
	// with them. Subset of ops/p50/p99/p999/load-spread/hit/fwd/hot.
	Optimize []string

	// Tweak, when non-nil, post-processes each compiled config (Go-only;
	// not serialized, and String marks the plan as code-backed). The
	// harness figure plans use it to reproduce their bespoke configs
	// bit-for-bit; it also unlocks matrix keys the compiler doesn't know.
	Tweak func(cfg *cluster.Config, cell Cell, opt Options)
}

// FSSpec sizes the generated namespace; zero fields keep fsgen defaults.
type FSSpec struct {
	Users    int
	Projects int
}

// ClusterSpec sets cluster-level knobs; zero fields keep cluster
// defaults.
type ClusterSpec struct {
	MDS      int
	Strategy string
	// Cache is the per-MDS cache capacity (inode records).
	Cache int
	// Shards > 1 selects the conservative parallel executor.
	Shards int
	// Net is the fabric latency model: "fixed" or "queued".
	Net string
	// Faults is a fault schedule in the internal/fault DSL.
	Faults string
	// Bucket is the metrics series bucket.
	Bucket sim.Time
}

// TrafficSpec configures the open-loop traffic plane.
type TrafficSpec struct {
	// Clients is the population size (scaled under quick).
	Clients int
	// Rate is the per-client mean arrival rate in ops/sec.
	Rate float64
	// Tenants, TenantSkew, FileSkew, WorkingSet shape the tenant model;
	// zeros keep workload defaults.
	Tenants    int
	TenantSkew float64
	FileSkew   float64
	WorkingSet int
	// Ways is the hint-table associativity.
	Ways int
	// Mix is the base op mix; nil keeps the population default.
	Mix *MixSpec
}

// MixSpec is an op-mix weighting in canonical draw order.
type MixSpec struct {
	Stat, Readdir, Chmod, Create, Rename, Unlink float64
}

func (m *MixSpec) sum() float64 {
	return m.Stat + m.Readdir + m.Chmod + m.Create + m.Rename + m.Unlink
}

// Axis is one matrix dimension: a known key and the values to sweep.
type Axis struct {
	Key    string
	Values []string
}

// Cell maps axis keys to the values chosen for one compiled run.
type Cell map[string]string

// Act is one timeline entry.
type Act struct {
	// Kind is ActPhase or ActHotspot.
	Kind string
	// Name labels the act in reports ("warm", "storm", ...).
	Name     string
	From, To sim.Time
	// RateMul scales the arrival rate for the window; 0 = unchanged.
	RateMul float64
	// Mix overrides the op mix for the window; nil = unchanged.
	Mix *MixSpec
	// Skew retargets the tenant popularity Zipf exponent at From (it
	// persists past To — see cluster.ActConfig). Negative = unchanged;
	// note the Go zero value 0 means "retarget to uniform", so
	// Go-authored acts that don't touch skew must set -1. Parse defaults
	// it correctly.
	Skew float64
	// Target and Frac are the hotspot path and the fraction of draws it
	// absorbs (hotspot acts only).
	Target string
	Frac   float64
}

// Options parameterises compilation (mirrors harness.Options).
type Options struct {
	Quick    bool
	Seed     int64
	NetModel string
}

// Compiled is one runnable cell of a plan.
type Compiled struct {
	// Label is "name" or "name/key=value/..." in axis order.
	Label string
	Cell  Cell
	Cfg   cluster.Config
}

// Validate checks everything that does not need a namespace. It is
// called by Compile; callers that only want the verdict (mdsim -plan
// validation, tests) can call it directly.
func (p *Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("plan has no name")
	}
	for _, r := range p.Name {
		if !(r == '-' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')) {
			return fmt.Errorf("plan name %q: use lowercase letters, digits and dashes", p.Name)
		}
	}
	if p.Quick < 0 {
		return fmt.Errorf("plan %s: quick factor %s is negative", p.Name, fmtFloat(p.Quick))
	}
	if p.Cluster.Net != "" && p.Cluster.Net != net.ModelFixed && p.Cluster.Net != net.ModelQueued {
		return fmt.Errorf("plan %s: unknown net model %q (want %s or %s)", p.Name, p.Cluster.Net, net.ModelFixed, net.ModelQueued)
	}
	if p.Duration <= 0 && p.Tweak == nil {
		return fmt.Errorf("plan %s: no duration", p.Name)
	}
	if p.Warmup < 0 || (p.Duration > 0 && p.Warmup >= p.Duration) {
		return fmt.Errorf("plan %s: warmup %s does not fit the %s duration", p.Name, fmtTime(p.Warmup), fmtTime(p.Duration))
	}
	if p.Traffic != nil {
		t := p.Traffic
		if t.Clients <= 0 {
			return fmt.Errorf("plan %s: traffic needs a client count", p.Name)
		}
		if t.Rate <= 0 {
			return fmt.Errorf("plan %s: traffic rate must be > 0", p.Name)
		}
		if t.Mix != nil && t.Mix.sum() <= 0 {
			return fmt.Errorf("plan %s: traffic mix has no weight", p.Name)
		}
		if t.Ways < 0 || t.Ways > 1<<20 {
			return fmt.Errorf("plan %s: traffic ways %d outside [0, 1<<20]", p.Name, t.Ways)
		}
	}
	seen := map[string]bool{}
	for _, ax := range p.Matrix {
		if len(ax.Values) == 0 {
			return fmt.Errorf("plan %s: matrix axis %q has no values", p.Name, ax.Key)
		}
		if seen[ax.Key] {
			return fmt.Errorf("plan %s: matrix axis %q repeated", p.Name, ax.Key)
		}
		seen[ax.Key] = true
		if !knownAxes[ax.Key] {
			if p.Tweak == nil {
				return fmt.Errorf("plan %s: unknown matrix key %q (known: %s)", p.Name, ax.Key, strings.Join(sortedKeys(knownAxes), " "))
			}
			continue // the Tweak owns it
		}
		for _, v := range ax.Values {
			if err := checkAxisValue(ax.Key, v); err != nil {
				return fmt.Errorf("plan %s: matrix %s: %w", p.Name, ax.Key, err)
			}
		}
	}
	var prevTo sim.Time
	prevName := ""
	for i, a := range p.Acts {
		if p.Traffic == nil {
			return fmt.Errorf("plan %s: acts need a traffic section (the open-loop plane)", p.Name)
		}
		if a.Kind != ActPhase && a.Kind != ActHotspot {
			return fmt.Errorf("plan %s: unknown act kind %q (want %s or %s)", p.Name, a.Kind, ActPhase, ActHotspot)
		}
		if a.Name == "" {
			return fmt.Errorf("plan %s: act %d has no name", p.Name, i)
		}
		if a.From < 0 || a.To <= a.From {
			return fmt.Errorf("plan %s: act %q: window %s..%s does not move forward", p.Name, a.Name, fmtTime(a.From), fmtTime(a.To))
		}
		if p.Duration > 0 && a.To > p.Duration {
			return fmt.Errorf("plan %s: act %q ends at %s, past the %s duration", p.Name, a.Name, fmtTime(a.To), fmtTime(p.Duration))
		}
		if a.From < prevTo {
			return fmt.Errorf("plan %s: act %q (from %s) overlaps act %q (ends %s)", p.Name, a.Name, fmtTime(a.From), prevName, fmtTime(prevTo))
		}
		prevTo, prevName = a.To, a.Name
		if a.RateMul < 0 {
			return fmt.Errorf("plan %s: act %q: rate multiplier must be > 0", p.Name, a.Name)
		}
		if a.Mix != nil && a.Mix.sum() <= 0 {
			return fmt.Errorf("plan %s: act %q: mix has no weight", p.Name, a.Name)
		}
		switch a.Kind {
		case ActHotspot:
			if a.Target == "" {
				return fmt.Errorf("plan %s: act %q: hotspot without a target path", p.Name, a.Name)
			}
			if !strings.HasPrefix(a.Target, "/") {
				return fmt.Errorf("plan %s: act %q: hotspot target %q is not an absolute path", p.Name, a.Name, a.Target)
			}
			if a.Frac <= 0 || a.Frac > 1 {
				return fmt.Errorf("plan %s: act %q: hotspot fraction %s outside (0, 1]", p.Name, a.Name, fmtFloat(a.Frac))
			}
		case ActPhase:
			if a.Target != "" || a.Frac != 0 {
				return fmt.Errorf("plan %s: act %q: phase acts take no target/frac (use kind %s)", p.Name, a.Name, ActHotspot)
			}
		}
	}
	for _, m := range p.Optimize {
		if !knownMetrics[m] {
			return fmt.Errorf("plan %s: unknown metric %q (known: %s)", p.Name, m, strings.Join(sortedKeys(knownMetrics), " "))
		}
	}
	return nil
}

// Compile validates the plan and expands its matrix into runnable
// cluster configs, one per cell, in deterministic order.
func (p *Plan) Compile(opt Options) ([]Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	q := 1.0
	if opt.Quick {
		q = p.Quick
		if q <= 0 {
			q = 0.5
		}
	}
	cells := expandMatrix(p.Matrix)
	out := make([]Compiled, 0, len(cells))
	for _, cell := range cells {
		cfg, err := p.baseConfig(opt, q)
		if err != nil {
			return nil, err
		}
		label := p.Name
		for _, ax := range p.Matrix {
			v := cell[ax.Key]
			label += "/" + ax.Key + "=" + v
			if knownAxes[ax.Key] {
				if err := applyAxis(&cfg, ax.Key, v); err != nil {
					return nil, fmt.Errorf("plan %s: matrix %s: %w", p.Name, ax.Key, err)
				}
			}
		}
		if p.Tweak != nil {
			p.Tweak(&cfg, cell, opt)
		}
		out = append(out, Compiled{Label: label, Cell: cell, Cfg: cfg})
	}
	return out, nil
}

// baseConfig builds the cell-independent config: cluster defaults, the
// plan's FS/cluster/traffic sections, and the quick-scaled timeline.
func (p *Plan) baseConfig(opt Options, q float64) (cluster.Config, error) {
	cfg := cluster.Default()
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	if p.FS.Users > 0 {
		cfg.FS.Users = p.FS.Users
	}
	if p.FS.Projects > 0 {
		cfg.FS.Projects = p.FS.Projects
	}
	c := p.Cluster
	if c.MDS > 0 {
		cfg.NumMDS = c.MDS
	}
	if c.Strategy != "" {
		cfg.Strategy = c.Strategy
	}
	if c.Cache > 0 {
		cfg.MDS = mds.DefaultConfig(c.Cache)
	}
	if c.Shards != 0 {
		cfg.Shards = c.Shards
	}
	if c.Net != "" {
		cfg.NetModel = c.Net
	}
	if opt.NetModel != "" {
		cfg.NetModel = opt.NetModel
	}
	cfg.Faults = c.Faults
	if c.Bucket > 0 {
		cfg.SeriesBucket = c.Bucket
	}
	if p.Duration > 0 {
		cfg.Duration = scaleTime(p.Duration, q)
	}
	cfg.Warmup = scaleTime(p.Warmup, q)
	if t := p.Traffic; t != nil {
		pc := &client.PopulationConfig{
			Clients: scaleCount(t.Clients, q),
			Rate:    t.Rate,
			Ways:    t.Ways,
			Tenant: workload.TenantConfig{
				Tenants:    t.Tenants,
				TenantSkew: t.TenantSkew,
				FileSkew:   t.FileSkew,
				WorkingSet: t.WorkingSet,
			},
		}
		if t.Mix != nil {
			pc.MixStat, pc.MixReaddir, pc.MixChmod = t.Mix.Stat, t.Mix.Readdir, t.Mix.Chmod
			pc.MixCreate, pc.MixRename, pc.MixUnlink = t.Mix.Create, t.Mix.Rename, t.Mix.Unlink
		}
		cfg.OpenLoop = pc
	}
	for _, a := range p.Acts {
		ac := cluster.ActConfig{
			Name:     a.Name,
			From:     scaleTime(a.From, q),
			To:       scaleTime(a.To, q),
			RateMul:  a.RateMul,
			FileSkew: a.Skew,
			Hotspot:  a.Target,
			HotFrac:  a.Frac,
		}
		if a.Mix != nil {
			ac.MixStat, ac.MixReaddir, ac.MixChmod = a.Mix.Stat, a.Mix.Readdir, a.Mix.Chmod
			ac.MixCreate, ac.MixRename, ac.MixUnlink = a.Mix.Create, a.Mix.Rename, a.Mix.Unlink
		}
		cfg.Acts = append(cfg.Acts, ac)
	}
	return cfg, nil
}

// expandMatrix returns the cartesian product of the axes, first axis
// outermost; a plan without a matrix is one cell.
func expandMatrix(axes []Axis) []Cell {
	cells := []Cell{{}}
	for _, ax := range axes {
		next := make([]Cell, 0, len(cells)*len(ax.Values))
		for _, c := range cells {
			for _, v := range ax.Values {
				nc := Cell{}
				for k, cv := range c {
					nc[k] = cv
				}
				nc[ax.Key] = v
				next = append(next, nc)
			}
		}
		cells = next
	}
	return cells
}

// checkAxisValue parses a known axis value without a config, so a bad
// matrix fails at Validate, not mid-sweep.
func checkAxisValue(key, v string) error {
	var scratch cluster.Config
	scratch.OpenLoop = &client.PopulationConfig{}
	return applyAxis(&scratch, key, v)
}

// applyAxis applies one known matrix binding to a config.
func applyAxis(cfg *cluster.Config, key, v string) error {
	switch key {
	case "strategy":
		for _, s := range cluster.Strategies {
			if v == s {
				cfg.Strategy = v
				return nil
			}
		}
		return fmt.Errorf("unknown strategy %q", v)
	case "mds":
		n, err := parseInt(v)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad MDS count %q", v)
		}
		cfg.NumMDS = n
	case "clients":
		n, err := parseInt(v)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad client count %q", v)
		}
		if cfg.OpenLoop != nil {
			cfg.OpenLoop.Clients = n
		} else if cfg.NumMDS > 0 {
			cfg.ClientsPerMDS = n / cfg.NumMDS
		}
	case "rate":
		f, err := parseFloat(v)
		if err != nil || f <= 0 {
			return fmt.Errorf("bad rate %q", v)
		}
		if cfg.OpenLoop == nil {
			return fmt.Errorf("rate axis needs a traffic section")
		}
		cfg.OpenLoop.Rate = f
	case "cache":
		n, err := parseInt(v)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad cache size %q", v)
		}
		cfg.MDS = mds.DefaultConfig(n)
	case "tenants":
		n, err := parseInt(v)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad tenant count %q", v)
		}
		if cfg.OpenLoop == nil {
			return fmt.Errorf("tenants axis needs a traffic section")
		}
		cfg.OpenLoop.Tenant.Tenants = n
	case "tenant-skew":
		f, err := parseFloat(v)
		if err != nil || f < 0 {
			return fmt.Errorf("bad tenant skew %q", v)
		}
		if cfg.OpenLoop == nil {
			return fmt.Errorf("tenant-skew axis needs a traffic section")
		}
		cfg.OpenLoop.Tenant.TenantSkew = f
	case "file-skew":
		f, err := parseFloat(v)
		if err != nil || f < 0 {
			return fmt.Errorf("bad file skew %q", v)
		}
		if cfg.OpenLoop == nil {
			return fmt.Errorf("file-skew axis needs a traffic section")
		}
		cfg.OpenLoop.Tenant.FileSkew = f
	case "shards":
		n, err := parseInt(v)
		if err != nil || n < 0 {
			return fmt.Errorf("bad shard count %q", v)
		}
		cfg.Shards = n
	case "mechanism":
		// Client-coherence mechanism under test: the lease plane and the
		// hot-directory replica fan-out, separately and together.
		cfg.Lease.Enabled, cfg.Lease.Fanout = false, false
		switch v {
		case "dumb":
		case "leases":
			cfg.Lease.Enabled = true
		case "fanout":
			cfg.Lease.Fanout = true
		case "both":
			cfg.Lease.Enabled, cfg.Lease.Fanout = true, true
		default:
			return fmt.Errorf("unknown mechanism %q (want dumb, leases, fanout or both)", v)
		}
	default:
		return fmt.Errorf("unknown matrix key %q", key)
	}
	return nil
}

// scaleTime scales a virtual time by the quick factor, snapping to the
// millisecond grid so act boundaries stay aligned with the timer wheel.
func scaleTime(t sim.Time, q float64) sim.Time {
	if q == 1 {
		return t
	}
	s := sim.Time(float64(t) * q)
	if s > sim.Millisecond {
		s -= s % sim.Millisecond
	}
	return s
}

// scaleCount scales a population size, keeping at least one client.
func scaleCount(n int, q float64) int {
	if q == 1 {
		return n
	}
	s := int(float64(n) * q)
	if s < 1 {
		s = 1
	}
	return s
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
