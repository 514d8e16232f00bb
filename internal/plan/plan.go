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
// unknown keys or metrics. The one namespace-dependent check — an
// act's hotspot path resolving to a real inode — happens in
// cluster.New, still before any event runs.
//
// Every knob of a run is one entry of the key table (keys.go). A plan
// binds keys on its fs/cluster/traffic lines, sweeps them in its
// matrix, and Options.Set (mdsim -set) overrides them on every compiled
// cell; nothing else names a knob.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"dynmds/internal/cluster"
	"dynmds/internal/sim"
)

// Act kinds.
const (
	// ActPhase retargets the traffic plane's rate/mix/skew for a window.
	ActPhase = "phase"
	// ActHotspot is a phase that additionally concentrates a fraction of
	// target draws on one namespace path.
	ActHotspot = "hotspot"
)

// Metrics are the columns of a plan report, in report order. A plan may
// name some under "optimize" to lead the report with them; the executor
// always records the full set.
var Metrics = []string{"ops", "p50", "p99", "p999", "load-spread", "hit", "fwd", "hot"}

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

	// Set binds keys of the key table: the plan's fs, cluster and
	// traffic lines and its warmup and duration. A traffic rate makes
	// the run open loop; plans with acts need one.
	Set []Setting

	// Matrix is the parameter sweep: the cartesian product of the axes,
	// first axis outermost. Each cell compiles to one run.
	Matrix []Axis

	// Acts is the scenario timeline: ordered, non-overlapping windows
	// within [0, duration].
	Acts []Act

	// Optimize names the metrics the plan is about; the report leads
	// with them. A subset of Metrics.
	Optimize []string

	// Tweak, when non-nil, post-processes each compiled config (Go-only;
	// not serialized, and String marks the plan as code-backed). The
	// harness figure plans use it to reproduce their bespoke configs
	// bit-for-bit; it also unlocks matrix keys the key table lacks.
	Tweak func(cfg *cluster.Config, cell Cell)
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

// Options parameterises compilation.
type Options struct {
	// Quick compiles the reduced-scale variant.
	Quick bool
	// Seed, when non-zero, replaces the default simulation seed.
	Seed int64
	// Set overrides keys on every compiled cell, after the matrix axes
	// and after the Tweak (mdsim -set). Overriding a key the matrix
	// sweeps is an error: the sweep would collapse.
	Set []Setting
}

// Compiled is one runnable cell of a plan.
type Compiled struct {
	// Label is "name" or "name/key=value/..." in axis order.
	Label string
	Cell  Cell
	Cfg   cluster.Config
}

// defaultSrc is the run mdsim makes when it is given no -plan, and the
// base that repro lines (CommandLine) are spelled against.
const defaultSrc = `plan default
describe One run of the stock cluster, reported in full; reshape it with -set.
quick 1
fs users=100
cluster mds=4 strategy=DynamicSubtree cache=2000 net=fixed
traffic clients=160
warmup 5s
duration 20s
`

// Default returns the built-in default plan.
func Default() *Plan {
	p, err := Parse(defaultSrc)
	if err != nil {
		panic(err)
	}
	return p
}

// Validate checks everything that does not need a namespace: it is
// Compile for callers that only want the verdict (the plan library,
// tests).
func (p *Plan) Validate() error {
	_, err := p.Compile(Options{})
	return err
}

// check vets the plan's shape — name, matrix, acts, metrics — before
// any cell is built; the cells' configs are vetted as they compile.
func (p *Plan) check() error {
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
	base, err := p.baseConfig(Options{}, 1)
	if err != nil {
		return err
	}
	_, timed := p.value("duration")
	if !timed && p.Tweak == nil {
		return fmt.Errorf("plan %s: no duration", p.Name)
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
		if lookupKey(ax.Key) == nil {
			if p.Tweak == nil {
				return fmt.Errorf("plan %s: unknown matrix key %q (known: %s)", p.Name, ax.Key, keyNames())
			}
			continue // the Tweak owns it
		}
		for _, v := range ax.Values {
			if err := checkValue(ax.Key, v); err != nil {
				return fmt.Errorf("plan %s: matrix %w", p.Name, err)
			}
		}
	}
	var prevTo sim.Time
	prevName := ""
	for i, a := range p.Acts {
		if base.OpenLoop == nil {
			return fmt.Errorf("plan %s: acts need an open-loop population (a traffic line with a rate)", p.Name)
		}
		if a.Kind != ActPhase && a.Kind != ActHotspot {
			return fmt.Errorf("plan %s: unknown act kind %q (want %s or %s)", p.Name, a.Kind, ActPhase, ActHotspot)
		}
		if a.Name == "" {
			return fmt.Errorf("plan %s: act %d has no name", p.Name, i)
		}
		if a.From < 0 || a.To <= a.From {
			return fmt.Errorf("plan %s: act %q: window %s..%s does not move forward", p.Name, a.Name, sim.FormatTime(a.From), sim.FormatTime(a.To))
		}
		if timed && a.To > base.Duration {
			return fmt.Errorf("plan %s: act %q ends at %s, past the %s duration", p.Name, a.Name, sim.FormatTime(a.To), sim.FormatTime(base.Duration))
		}
		if a.From < prevTo {
			return fmt.Errorf("plan %s: act %q (from %s) overlaps act %q (ends %s)", p.Name, a.Name, sim.FormatTime(a.From), prevName, sim.FormatTime(prevTo))
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
		if !slices.Contains(Metrics, m) {
			return fmt.Errorf("plan %s: unknown metric %q (known: %s)", p.Name, m, strings.Join(Metrics, " "))
		}
	}
	return nil
}

// value returns the plan's own binding of a key.
func (p *Plan) value(key string) (string, bool) {
	if i := lastIndex(p.Set, key); i >= 0 {
		return p.Set[i].Value, true
	}
	return "", false
}

// Compile checks the plan and expands its matrix into runnable
// cluster configs, one per cell, in deterministic order. Each cell is
// built in four layers, later ones winning: the plan's own settings,
// the cell's matrix bindings, the Tweak, and opt.Set.
func (p *Plan) Compile(opt Options) ([]Compiled, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	for _, s := range opt.Set {
		for _, ax := range p.Matrix {
			if ax.Key == s.Key {
				return nil, fmt.Errorf("plan %s: -set %s overrides the %q axis the plan's matrix sweeps", p.Name, s, ax.Key)
			}
		}
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
			if k := lookupKey(ax.Key); k != nil {
				if err := k.set(&cfg, v); err != nil {
					return nil, fmt.Errorf("plan %s: matrix %s=%s: %w", p.Name, ax.Key, v, err)
				}
			}
		}
		if p.Tweak != nil {
			p.Tweak(&cfg, cell)
		}
		if err := Apply(&cfg, opt.Set); err != nil {
			return nil, fmt.Errorf("plan %s: %w", label, err)
		}
		out = append(out, Compiled{Label: label, Cell: cell, Cfg: cfg})
	}
	return out, nil
}

// baseConfig builds the cell-independent config: cluster defaults, the
// plan's own settings, and the quick-scaled timeline and population.
func (p *Plan) baseConfig(opt Options, q float64) (cluster.Config, error) {
	cfg := cluster.Default()
	cfg.Warmup = 0 // a plan without a warmup directive measures from t=0
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	if err := bind(&cfg, p.Set); err != nil {
		return cfg, fmt.Errorf("plan %s: %w", p.Name, err)
	}
	cfg.Duration = scaleTime(cfg.Duration, q)
	cfg.Warmup = scaleTime(cfg.Warmup, q)
	if cfg.OpenLoop != nil && cfg.OpenLoop.Clients > 0 {
		cfg.OpenLoop.Clients = scaleCount(cfg.OpenLoop.Clients, q)
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
