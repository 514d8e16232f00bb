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
// Compile checks the plan's shape and each cell's keys, then the
// cluster's rulebook (cluster.Config.Validate, the checkpoint cadence's
// rules included), and turns a soak into its fault schedule. The
// namespace-dependent checks — an act's hotspot path resolving to a real
// inode — happen in cluster.New, still before any event runs.
//
// Every knob of a run is one entry of the key table (keys.go). A plan
// binds keys on its fs/cluster/traffic lines, sweeps them in its
// matrix, and Options.Set (mdsim -set) overrides them on every compiled
// cell; nothing else names a knob.
package plan

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"dynmds/internal/cluster"
	"dynmds/internal/sim"
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
	// Quick scales simulated times and open-loop client counts when
	// compiled with Options.Quick; 0 means the default 0.5.
	Quick float64

	// Set binds keys of the key table: the plan's fs, cluster and
	// traffic lines and its warmup and duration. A traffic rate makes
	// the run open loop; plans with acts need one.
	Set []Setting

	// Matrix is the parameter sweep: the cartesian product of the axes,
	// first axis outermost. Each cell compiles to one run.
	Matrix []Axis

	// QuickSet and QuickMatrix are the plan's quick lines, read only
	// under Options.Quick: QuickSet rebinds keys after Set, and each
	// QuickMatrix axis replaces the values of the axis with its keys.
	QuickSet    []Setting
	QuickMatrix []Axis

	// Acts is the scenario timeline: ordered, non-overlapping windows
	// within [0, duration], written at full scale.
	Acts []cluster.ActConfig

	// Optimize names the metrics the plan is about; the report leads
	// with them. A subset of Metrics.
	Optimize []string
}

// Axis is one matrix dimension: one key and the values it sweeps, or
// several keys that co-vary — cell i binds each key to its i-th value.
type Axis []Column

// Column is one key of an axis and its values.
type Column struct {
	Key    string
	Values []string
}

// Len is the number of cells along the axis.
func (a Axis) Len() int { return len(a[0].Values) }

// Cell maps axis keys to the values chosen for one compiled run.
type Cell map[string]string

// Options parameterises compilation.
type Options struct {
	// Quick compiles the reduced-scale variant.
	Quick bool
	// Seed, when non-zero, replaces the default simulation seed.
	Seed int64
	// Set overrides keys on every compiled cell, after the matrix axes
	// (mdsim -set). Overriding a key the matrix sweeps is an error: the
	// sweep would collapse.
	Set []Setting
	// CheckpointDir and Restore are the endurance plane's files (mdsim
	// -checkpoint-dir, -restore): the directory a run with a checkpoint
	// cadence writes its snapshots to, and the snapshot it resumes from.
	// Only a plan of one cell with a cadence takes them.
	CheckpointDir, Restore string
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

// Validate checks everything that does not need a namespace, at full
// and at quick scale: it is Compile for callers that only want the
// verdict (the plan library, tests).
func (p *Plan) Validate() error {
	_, err := p.Compile(Options{})
	if err == nil {
		_, err = p.Compile(Options{Quick: true})
	}
	return err
}

// check vets the plan's shape — name, matrix, metrics — before any cell
// is built; the cells' configs, acts included, are vetted as they
// compile.
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
	if lastIndex(p.Set, "duration") < 0 {
		return fmt.Errorf("plan %s: no duration", p.Name)
	}
	seen := map[string]bool{}
	for _, ax := range p.Matrix {
		if err := p.checkAxis(ax); err != nil {
			return err
		}
		for _, col := range ax {
			if seen[col.Key] {
				return fmt.Errorf("plan %s: matrix key %q repeated: a key belongs to one axis", p.Name, col.Key)
			}
			seen[col.Key] = true
		}
	}
	for _, ax := range p.QuickMatrix {
		if p.axisOf(ax) < 0 {
			return fmt.Errorf("plan %s: quick matrix %s replaces no axis", p.Name, ax)
		}
		if err := p.checkAxis(ax); err != nil {
			return fmt.Errorf("quick %w", err)
		}
	}
	for _, m := range p.Optimize {
		if !slices.Contains(Metrics, m) {
			return fmt.Errorf("plan %s: unknown metric %q (known: %s)", p.Name, m, strings.Join(Metrics, " "))
		}
	}
	return nil
}

// checkAxis vets one axis on its own: known keys, each with as many
// good values as the others.
func (p *Plan) checkAxis(ax Axis) error {
	if len(ax) == 0 || ax.Len() == 0 {
		return fmt.Errorf("plan %s: matrix axis %s has no values", p.Name, ax)
	}
	for _, col := range ax {
		if lookupKey(col.Key) == nil {
			return fmt.Errorf("plan %s: unknown matrix key %q (known: %s)", p.Name, col.Key, keyNames())
		}
		if len(col.Values) != ax.Len() {
			return fmt.Errorf("plan %s: matrix %s: co-varying keys need as many values each", p.Name, ax)
		}
		for _, v := range col.Values {
			if err := checkValue(col.Key, v); err != nil {
				return fmt.Errorf("plan %s: matrix %w", p.Name, err)
			}
		}
	}
	return nil
}

// axisOf finds the matrix axis with the same keys as ax; -1 if none.
func (p *Plan) axisOf(ax Axis) int {
	return slices.IndexFunc(p.Matrix, func(m Axis) bool {
		return slices.EqualFunc(m, ax, func(a, b Column) bool { return a.Key == b.Key })
	})
}

// String renders the axis as its matrix line does.
func (a Axis) String() string {
	parts := make([]string, len(a))
	for i, col := range a {
		parts[i] = col.Key + "=" + strings.Join(col.Values, ",")
	}
	return strings.Join(parts, " ")
}

// Compile checks the plan and expands its matrix into runnable
// cluster configs, one per cell, in deterministic order. A cell's
// config is the defaults overridden by the plan's own bindings, its
// quick lines under opt.Quick, and the cell's matrix bindings — all
// applied together in key-table order, later ones winning on a key —
// then scaled by the quick factor, and last overridden by opt.Set.
func (p *Plan) Compile(opt Options) ([]Compiled, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	set, matrix, q := p.Set, p.Matrix, 1.0
	if opt.Quick {
		set = append(slices.Clip(set), p.QuickSet...)
		matrix = slices.Clone(matrix)
		for _, ax := range p.QuickMatrix {
			matrix[p.axisOf(ax)] = ax
		}
		if q = p.Quick; q <= 0 {
			q = 0.5
		}
	}
	for _, s := range opt.Set {
		for _, ax := range matrix {
			for _, col := range ax {
				if col.Key == s.Key {
					return nil, fmt.Errorf("plan %s: -set %s overrides the %q axis the plan's matrix sweeps", p.Name, s, col.Key)
				}
			}
		}
	}
	var out []Compiled
	for _, cell := range expandMatrix(matrix) {
		label := p.Name
		cellSet := slices.Clip(set)
		for _, ax := range matrix {
			for _, col := range ax {
				label += "/" + col.Key + "=" + cell[col.Key]
				cellSet = append(cellSet, Setting{col.Key, cell[col.Key]})
			}
		}
		cfg, err := p.config(opt.Seed, cellSet, q)
		if err == nil {
			err = Apply(&cfg, opt.Set)
		}
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", label, err)
		}
		out = append(out, Compiled{Label: label, Cell: cell, Cfg: cfg})
	}
	if opt.CheckpointDir != "" || opt.Restore != "" {
		switch {
		case len(out) != 1:
			return nil, fmt.Errorf("plan %s: -checkpoint-dir and -restore take a plan of one run, not %d", p.Name, len(out))
		case out[0].Cfg.Checkpoint == 0:
			return nil, fmt.Errorf("plan %s: -checkpoint-dir and -restore need a checkpoint cadence (-set checkpoint=...)", p.Name)
		}
	}
	return out, nil
}

// config builds one cell's config: cluster defaults, the settings, and
// the quick-scaled timeline, population and acts. Apply checks it.
func (p *Plan) config(seed int64, set []Setting, q float64) (cluster.Config, error) {
	cfg := cluster.Default()
	cfg.Warmup = 0 // a plan without a warmup directive measures from t=0
	if seed != 0 {
		cfg.Seed = seed
	}
	if err := bind(&cfg, set); err != nil {
		return cfg, err
	}
	cfg.Duration = scaleTime(cfg.Duration, q)
	cfg.Warmup = scaleTime(cfg.Warmup, q)
	if cfg.OpenLoop != nil && cfg.OpenLoop.Clients > 0 {
		cfg.OpenLoop.Clients = scaleCount(cfg.OpenLoop.Clients, q)
	}
	for _, a := range p.Acts {
		a.From, a.To = scaleTime(a.From, q), scaleTime(a.To, q)
		cfg.Acts = append(cfg.Acts, a)
	}
	return cfg, nil
}

// expandMatrix returns the cartesian product of the axes, first axis
// outermost; a plan without a matrix is one cell.
func expandMatrix(axes []Axis) []Cell {
	cells := []Cell{{}}
	for _, ax := range axes {
		next := make([]Cell, 0, len(cells)*ax.Len())
		for _, c := range cells {
			for i := range ax.Len() {
				nc := maps.Clone(c)
				for _, col := range ax {
					nc[col.Key] = col.Values[i]
				}
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
