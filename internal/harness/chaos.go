package harness

import (
	"errors"
	"fmt"
	"strings"

	"dynmds/internal/chaos"
	"dynmds/internal/cluster"
	"dynmds/internal/fault"
	"dynmds/internal/plan"
	"dynmds/internal/sim"
)

// ChaosOptions parameterises a seeded fuzz budget: Schedules generated
// schedules (chaos.Generate, runs 0..Schedules-1 off Seed), each run
// against every strategy, each finished run checked by chaos.Fsck.
// The whole budget is a pure function of the options: the same options
// always produce the same report.
type ChaosOptions struct {
	Seed      int64
	Schedules int     // generated schedules; 0 means 25
	Intensity float64 // generator intensity; 0 means 1

	Strategies []string // nil means cluster.Strategies

	// NumMDS and Duration shape the generated schedules and the runs
	// they are injected into; 0 means 4 nodes / 5 simulated seconds.
	NumMDS   int
	Duration sim.Time

	// ShrinkBudget caps predicate evaluations (= full re-runs) per
	// shrunk failure; 0 means 120. MaxShrinks caps how many failures
	// are shrunk at all (the rest keep their original schedule);
	// 0 means 4.
	ShrinkBudget int
	MaxShrinks   int

	// Set overrides keys on every cell (mdsim -set): net=queued, or
	// shards=2 for the sharded executor (fault schedules force its
	// single-goroutine windowed mode, so verdicts stay deterministic).
	// The budget sweeps strategy and faults itself.
	Set []plan.Setting
}

func (o *ChaosOptions) defaults() {
	if o.Schedules <= 0 {
		o.Schedules = 25
	}
	if o.Intensity <= 0 {
		o.Intensity = 1
	}
	if len(o.Strategies) == 0 {
		o.Strategies = cluster.Strategies
	}
	if o.NumMDS <= 0 {
		o.NumMDS = 4
	}
	if o.Duration <= 0 {
		o.Duration = 5 * sim.Second
	}
	if o.ShrinkBudget <= 0 {
		o.ShrinkBudget = 120
	}
	if o.MaxShrinks <= 0 {
		o.MaxShrinks = 4
	}
}

// ChaosFailure records one (schedule, strategy) cell that failed
// simfsck, plus the shrunk minimal repro when the shrinker ran.
type ChaosFailure struct {
	Schedule int
	Strategy string
	Faults   string
	Error    string

	OrigRules   int
	Shrunk      string
	ShrunkRules int
	ShrinkEvals int
	Replay      string
	shrunk      bool
}

// ChaosReport summarises a fuzz budget.
type ChaosReport struct {
	Seed       int64
	Schedules  int
	Strategies []string
	Intensity  float64
	Runs       int
	Passed     int
	Failed     int
	RulesTotal int
	Failures   []ChaosFailure
}

// String renders the human-readable summary mdsim prints.
func (r *ChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: seed=%d schedules=%d strategies=%d runs=%d passed=%d failed=%d rules=%d\n",
		r.Seed, r.Schedules, len(r.Strategies), r.Runs, r.Passed, r.Failed, r.RulesTotal)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "FAIL schedule=%d strategy=%s rules=%d\n  faults: %s\n  %s\n",
			f.Schedule, f.Strategy, f.OrigRules, f.Faults,
			strings.ReplaceAll(f.Error, "\n", "\n  "))
		if f.shrunk {
			if f.Shrunk == "" {
				fmt.Fprintf(&b, "  shrunk to the empty schedule in %d evals — fails without faults\n", f.ShrinkEvals)
			} else {
				fmt.Fprintf(&b, "  shrunk %d -> %d rules in %d evals: %s\n",
					f.OrigRules, f.ShrunkRules, f.ShrinkEvals, f.Shrunk)
			}
			fmt.Fprintf(&b, "  replay: %s\n", f.Replay)
		}
	}
	return b.String()
}

// ChaosConfig builds the run configuration for one cell. It deviates
// from the default plan only on keys of the plan key table, so every
// failure replays exactly from the plan.CommandLine the report prints.
func ChaosConfig(opt ChaosOptions, strategy, faults string) (cluster.Config, error) {
	opt.defaults()
	cfg := cluster.Default()
	cfg.Strategy = strategy
	cfg.Seed = opt.Seed
	cfg.NumMDS = opt.NumMDS
	cfg.ClientsPerMDS = 10
	cfg.FS.Users = 30
	cfg.MDS.CacheCapacity = 500
	cfg.MDS.Storage.LogCapacity = 500
	cfg.Duration = opt.Duration
	cfg.Warmup = sim.Second
	cfg.Faults = faults
	for _, s := range opt.Set {
		if s.Key == "strategy" || s.Key == "faults" {
			return cfg, fmt.Errorf("chaos: -set %s overrides a key the budget sweeps", s)
		}
	}
	return cfg, plan.Apply(&cfg, opt.Set)
}

// chaosCell runs one configuration to completion, drains it, and
// returns the simfsck verdict (nil = clean). All cells of a budget use
// the same FS config and seed, so they share one namespace snapshot.
func chaosCell(cfg cluster.Config) (violation, setup error) {
	cl, err := build(cfg)
	if err != nil {
		return nil, err
	}
	base := chaos.Capture(cl)
	cl.Run()
	cl.Drain()
	return chaos.Fsck(cl, base), nil
}

// Chaos runs the fuzz budget: Schedules generated schedules, each
// against every strategy, on the sweep worker pool. Every failing cell
// is recorded; the first MaxShrinks failures are shrunk to minimal
// repros. The returned error covers setup problems only — invariant
// violations land in the report.
func Chaos(opt ChaosOptions) (*ChaosReport, error) {
	opt.defaults()
	scheds := make([]*fault.Schedule, opt.Schedules)
	texts := make([]string, opt.Schedules)
	rules := 0
	for i := range scheds {
		scheds[i] = chaos.Generate(chaos.GenConfig{
			Seed: opt.Seed, Run: i,
			NumMDS: opt.NumMDS, Duration: opt.Duration,
			Intensity: opt.Intensity,
		})
		texts[i] = scheds[i].String()
		rules += scheds[i].NumRules()
	}

	// One cell per (schedule, strategy), schedule-major, on the sweep
	// pool.
	nStrat := len(opt.Strategies)
	specs := make([]RunSpec, 0, opt.Schedules*nStrat)
	for i := 0; i < opt.Schedules; i++ {
		for _, strat := range opt.Strategies {
			cfg, err := ChaosConfig(opt, strat, texts[i])
			if err != nil {
				return nil, err
			}
			specs = append(specs, RunSpec{Cfg: cfg})
		}
	}
	type cell struct{ violation, err error }
	cells := make([]cell, len(specs))
	forEachRun(specs, func(i int) { cells[i].violation, cells[i].err = chaosCell(specs[i].Cfg) })

	var setupErrs []error
	rep := &ChaosReport{
		Seed:       opt.Seed,
		Schedules:  opt.Schedules,
		Strategies: opt.Strategies,
		Intensity:  opt.Intensity,
		Runs:       len(cells),
		RulesTotal: rules,
	}
	for i := 0; i < opt.Schedules; i++ {
		for j, strat := range opt.Strategies {
			c := cells[i*nStrat+j]
			if c.err != nil {
				setupErrs = append(setupErrs, fmt.Errorf("chaos schedule %d strategy %s: %w", i, strat, c.err))
				continue
			}
			if c.violation == nil {
				rep.Passed++
				continue
			}
			rep.Failed++
			rep.Failures = append(rep.Failures, ChaosFailure{
				Schedule:  i,
				Strategy:  strat,
				Faults:    texts[i],
				Error:     c.violation.Error(),
				OrigRules: scheds[i].NumRules(),
			})
		}
	}
	if err := errors.Join(setupErrs...); err != nil {
		return nil, err
	}

	for fi := range rep.Failures {
		if fi >= opt.MaxShrinks {
			break
		}
		f := &rep.Failures[fi]
		fails := func(s *fault.Schedule) bool {
			cfg, err := ChaosConfig(opt, f.Strategy, s.String())
			if err != nil {
				return false
			}
			violation, err := chaosCell(cfg)
			return err == nil && violation != nil
		}
		minS, evals := ShrinkSchedule(scheds[f.Schedule], fails, opt.ShrinkBudget)
		f.shrunk = true
		f.Shrunk = minS.String()
		f.ShrunkRules = minS.NumRules()
		f.ShrinkEvals = evals
		if cfg, err := ChaosConfig(opt, f.Strategy, f.Shrunk); err == nil {
			f.Replay = plan.CommandLine(cfg)
		}
	}
	return rep, nil
}

// ShrinkSchedule minimises a failing fault schedule: it repeatedly
// applies reductions — drop a whole rule, halve a rule's window, drop a
// partition-group member — keeping a candidate only if fails still
// returns true, until a fixed point or the evaluation budget (<= 0
// means 200) is exhausted. The candidate order is deterministic, so a
// deterministic predicate always yields the same minimum. The result is
// valid whenever the input was: reductions never widen windows, empty a
// partition group, or invent node indices. Returns the shrunk schedule
// and the number of predicate evaluations spent.
func ShrinkSchedule(s *fault.Schedule, fails func(*fault.Schedule) bool, budget int) (*fault.Schedule, int) {
	if budget <= 0 {
		budget = 200
	}
	evals := 0
	try := func(c *fault.Schedule) bool {
		if evals >= budget {
			return false
		}
		evals++
		return fails(c)
	}
	cur := s.Clone()
	for changed := true; changed && evals < budget; {
		changed = false
		// Pass 1: drop whole rules, one at a time. Greedy left-to-right:
		// after a successful drop the same index holds the next rule.
		for i := 0; i < cur.NumRules(); i++ {
			if cand := dropRule(cur, i); try(cand) {
				cur = cand
				changed = true
				i--
			}
		}
		// Pass 2: halve windows toward their start — recoveries move
		// toward their crash, lag/slow/partition windows shrink. Shorter
		// windows mean fewer affected messages, hence simpler repros.
		for i := range cur.Recovers {
			if cand, ok := halveRecovery(cur, i); ok && try(cand) {
				cur = cand
				changed = true
			}
		}
		for i := range cur.Lags {
			mid, ok := midpoint(cur.Lags[i].From, cur.Lags[i].To)
			if !ok {
				continue
			}
			cand := cur.Clone()
			cand.Lags[i].To = mid
			if try(cand) {
				cur = cand
				changed = true
			}
		}
		for i := range cur.Slows {
			mid, ok := midpoint(cur.Slows[i].From, cur.Slows[i].To)
			if !ok {
				continue
			}
			cand := cur.Clone()
			cand.Slows[i].To = mid
			if try(cand) {
				cur = cand
				changed = true
			}
		}
		for i := range cur.Partitions {
			mid, ok := midpoint(cur.Partitions[i].From, cur.Partitions[i].To)
			if !ok {
				continue
			}
			cand := cur.Clone()
			cand.Partitions[i].To = mid
			if try(cand) {
				cur = cand
				changed = true
			}
		}
		// Pass 3: reduce the nodes a partition involves, one group
		// member at a time (groups stay non-empty).
		for i := range cur.Partitions {
			for _, side := range []int{0, 1} {
				group := cur.Partitions[i].A
				if side == 1 {
					group = cur.Partitions[i].B
				}
				for m := 0; m < len(group) && len(group) > 1; m++ {
					cand := cur.Clone()
					g := append([]int(nil), group[:m]...)
					g = append(g, group[m+1:]...)
					if side == 0 {
						cand.Partitions[i].A = g
					} else {
						cand.Partitions[i].B = g
					}
					if try(cand) {
						cur = cand
						group = g
						changed = true
						m--
					}
				}
			}
		}
	}
	return cur, evals
}

// dropRule clones the schedule minus rule idx, indexing across the
// rule slices in struct order (crash, recover, drop, lag, slow,
// partition) — the same order NumRules counts.
func dropRule(s *fault.Schedule, idx int) *fault.Schedule {
	c := s.Clone()
	for _, sl := range []struct {
		n   int
		cut func(i int)
	}{
		{len(c.Crashes), func(i int) { c.Crashes = append(c.Crashes[:i], c.Crashes[i+1:]...) }},
		{len(c.Recovers), func(i int) { c.Recovers = append(c.Recovers[:i], c.Recovers[i+1:]...) }},
		{len(c.Drops), func(i int) { c.Drops = append(c.Drops[:i], c.Drops[i+1:]...) }},
		{len(c.Lags), func(i int) { c.Lags = append(c.Lags[:i], c.Lags[i+1:]...) }},
		{len(c.Slows), func(i int) { c.Slows = append(c.Slows[:i], c.Slows[i+1:]...) }},
		{len(c.Partitions), func(i int) { c.Partitions = append(c.Partitions[:i], c.Partitions[i+1:]...) }},
	} {
		if idx < sl.n {
			sl.cut(idx)
			return c
		}
		idx -= sl.n
	}
	return c // idx out of range: unchanged clone (callers stay in range)
}

// halveRecovery moves recovery i to the midpoint between its node's
// latest preceding crash and its current time, shortening the outage's
// tail. Returns ok=false when there is no room to move.
func halveRecovery(s *fault.Schedule, i int) (*fault.Schedule, bool) {
	rec := s.Recovers[i]
	crashAt := sim.Time(-1)
	for _, ev := range s.Crashes {
		if ev.Node == rec.Node && ev.At < rec.At && ev.At > crashAt {
			crashAt = ev.At
		}
	}
	if crashAt < 0 {
		return nil, false
	}
	mid, ok := midpoint(crashAt, rec.At)
	if !ok {
		return nil, false
	}
	c := s.Clone()
	c.Recovers[i].At = mid
	return c, true
}

// midpoint returns the millisecond-rounded midpoint of [from, to),
// ok=false when the window is already too narrow to halve.
func midpoint(from, to sim.Time) (sim.Time, bool) {
	mid := from + (to-from)/2
	mid -= mid % sim.Millisecond
	if mid <= from || mid >= to {
		return 0, false
	}
	return mid, true
}
