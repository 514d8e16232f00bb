// Package chaos provides seeded chaos fuzzing for the simulated
// cluster: a schedule generator that derives random-but-reproducible
// fault schedules from a single seed, and simfsck, a cluster-wide
// end-of-run consistency checker that goes beyond the per-structure
// CheckInvariants methods, and ShrinkSchedule, which cuts a failing
// schedule down to a minimal one. The chaos budget that ties them
// together is an experiment of internal/harness (it needs the run
// machinery).
//
// Determinism: Generate draws every value from one sim.NewStream keyed
// by (Seed, Run), in a fixed order, so the same inputs always yield a
// bit-identical schedule — and, because the fault plane is itself
// deterministic, a bit-identical run.
package chaos

import (
	"fmt"

	"dynmds/internal/fault"
	"dynmds/internal/sim"
)

// GenConfig parameterises schedule generation.
type GenConfig struct {
	// Seed and Run key the RNG stream: one seed spans a whole fuzz
	// budget, Run indexes the schedules within it.
	Seed int64
	Run  int
	// NumMDS is the cluster size the schedule must be valid for
	// (needs >= 2: a single-node cluster has nothing to crash or
	// partition).
	NumMDS int
	// Duration is the run length; every window falls inside
	// [Duration/10, Duration*9/10] so the run warms up before the first
	// fault and quiesces before the drain.
	Duration sim.Time
}

// Generate derives a random, valid fault schedule from the config.
// Guarantees, so that simfsck's invariants are meaningful:
//   - node 0 is never crashed, slowed or partitioned away alone — at
//     least one node stays up for failover to target;
//   - crash windows are paired with a recovery three times out of four
//     (the rest stay down through the run's end);
//   - drop probabilities, lag magnitudes and slow factors are bounded
//     (< 0.08, <= 20ms, < 4x) so runs degrade rather than stall;
//   - every window lies strictly inside the run and the result passes
//     Validate(NumMDS).
func Generate(cfg GenConfig) *fault.Schedule {
	if cfg.NumMDS < 2 {
		panic("chaos: Generate needs NumMDS >= 2")
	}
	if cfg.Duration <= 0 {
		panic("chaos: Generate needs a positive Duration")
	}
	rng := sim.NewStream(cfg.Seed, fmt.Sprintf("chaos-gen-%d", cfg.Run))
	g := &generator{
		rng: rng,
		n:   cfg.NumMDS,
		lo:  cfg.Duration / 10,
		hi:  cfg.Duration * 9 / 10,
	}

	// Up to this many rules per class.
	nCrash := g.rng.Intn(min(2, cfg.NumMDS-1) + 1)
	nDrop := g.rng.Intn(3)
	nLag := g.rng.Intn(3)
	nSlow := g.rng.Intn(2)
	nPart := g.rng.Intn(2)

	g.crashes(nCrash)
	g.drops(nDrop)
	g.lags(nLag)
	g.slows(nSlow)
	g.partitions(nPart)

	s := fault.NewSchedule(g.rules)
	if err := s.Validate(cfg.NumMDS); err != nil {
		panic("chaos: generated an invalid schedule: " + err.Error())
	}
	return s
}

// RollingConfig parameterises GenerateRolling.
type RollingConfig struct {
	// Seed keys the jitter stream.
	Seed int64
	// NumMDS is the cluster size (>= 2; node 0 never crashes).
	NumMDS int
	// Cycles is the number of crash/recover pairs (>= 1).
	Cycles int
	// Horizon is the run length the cycles are spread over.
	Horizon sim.Time
}

// GenerateRolling derives a rolling-upgrade shaped fault schedule: the
// one the soak key writes into a cell's faults. Cycles sequential
// crash/recover pairs sweep round-robin over nodes 1..n-1 — node 0 is
// the designated survivor, so failover always has a target — evenly
// spaced over the middle 80% of the horizon with millisecond jitter,
// each node back up after a third of the cycle spacing (at most 2s),
// well before the next one goes down (outages never overlap). The
// result is deterministic in the config and valid for NumMDS; a config
// with no node to crash, or cycles closer than 4ms apart, is an error.
func GenerateRolling(cfg RollingConfig) (*fault.Schedule, error) {
	if cfg.NumMDS < 2 {
		return nil, fmt.Errorf("a rolling schedule needs at least 2 MDS nodes (node 0 never crashes)")
	}
	cycles := cfg.Cycles
	lo, hi := cfg.Horizon/10, cfg.Horizon*9/10
	if cycles < 1 || (hi-lo)/sim.Time(cycles) < 4*sim.Millisecond {
		return nil, fmt.Errorf("%d crash/recover cycles do not fit a %s run", cycles, sim.FormatTime(cfg.Horizon))
	}
	step := (hi - lo) / sim.Time(cycles)
	outage := min(step/3, 2*sim.Second)
	rng := sim.NewStream(cfg.Seed, "chaos-rolling")
	var rules []fault.Rule
	jitterSpan := int((step - outage) / (4 * sim.Millisecond))
	for i := 0; i < cycles; i++ {
		at := lo + sim.Time(i)*step
		if jitterSpan > 0 {
			at += sim.Time(rng.Intn(jitterSpan)) * sim.Millisecond
		}
		victim := 1 + i%(cfg.NumMDS-1)
		rules = append(rules, fault.Rule{Kind: fault.Crash, From: at, Node: victim},
			fault.Rule{Kind: fault.Recover, From: at + outage, Node: victim})
	}
	s := fault.NewSchedule(rules)
	if err := s.Validate(cfg.NumMDS); err != nil {
		panic("chaos: generated an invalid rolling schedule: " + err.Error())
	}
	return s, nil
}

type generator struct {
	rng    *sim.RNG
	n      int
	lo, hi sim.Time
	rules  []fault.Rule
}

// at picks a millisecond-granular instant in [g.lo, g.hi).
func (g *generator) at() sim.Time {
	span := int((g.hi - g.lo) / sim.Millisecond)
	return g.lo + sim.Time(g.rng.Intn(span))*sim.Millisecond
}

// window picks an ordered millisecond-granular window inside the run.
func (g *generator) window() (from, to sim.Time) {
	a, b := g.at(), g.at()
	if a > b {
		a, b = b, a
	}
	if a == b {
		b += sim.Millisecond
	}
	return a, b
}

// victim picks any node except 0, the designated survivor.
func (g *generator) victim() int { return 1 + g.rng.Intn(g.n-1) }

// crashes draws up to count crash events against distinct victims; most
// get a paired recovery, the rest stay down. Node 0 never crashes, so
// failover always has a target.
func (g *generator) crashes(count int) {
	used := make(map[int]bool)
	for i := 0; i < count; i++ {
		node := g.victim()
		from, to := g.window()
		recovers := g.rng.Float64() < 0.75
		if used[node] {
			continue
		}
		used[node] = true
		g.rules = append(g.rules, fault.Rule{Kind: fault.Crash, From: from, Node: node})
		if recovers {
			g.rules = append(g.rules, fault.Rule{Kind: fault.Recover, From: to, Node: node})
		}
	}
}

// sel draws a link selector over any kind (all, client, node, pair).
func (g *generator) sel() fault.LinkSel {
	switch g.rng.Intn(4) {
	case 0:
		return fault.SelAll()
	case 1:
		return fault.SelClient()
	case 2:
		return fault.SelNode(g.rng.Intn(g.n))
	default:
		a := g.rng.Intn(g.n)
		b := (a + 1 + g.rng.Intn(g.n-1)) % g.n
		return fault.SelPair(a, b)
	}
}

// drops draws whole-run probabilistic drop rules, probability under
// 0.08 so traffic degrades rather than stops.
func (g *generator) drops(count int) {
	for i := 0; i < count; i++ {
		sel := g.sel()
		p := 0.08 * g.rng.Float64()
		g.rules = append(g.rules, fault.Rule{Kind: fault.Drop, Sel: sel, P: p})
	}
}

// lags draws windowed latency spikes, 1-20ms extra per message.
func (g *generator) lags(count int) {
	for i := 0; i < count; i++ {
		sel := g.sel()
		from, to := g.window()
		extra := sim.Time(1+g.rng.Intn(20)) * sim.Millisecond
		g.rules = append(g.rules, fault.Rule{Kind: fault.Lag, From: from, To: to, Sel: sel, Extra: extra})
	}
}

// slows draws windowed service-time scaling, factor in [1.5, 4).
func (g *generator) slows(count int) {
	for i := 0; i < count; i++ {
		node := g.rng.Intn(g.n)
		from, to := g.window()
		factor := 1.5 + float64(2.5*g.rng.Float64())
		g.rules = append(g.rules, fault.Rule{Kind: fault.Slow, From: from, To: to, Node: node, Factor: factor})
	}
}

// partitions draws windowed two-group splits over a shuffled subset of
// the nodes. Both groups are non-empty and disjoint; nodes left out of
// the shuffle prefix stay connected to everyone. Needs >= 3 nodes so a
// split leaves structure worth testing (with 2 it still works but
// isolates half the cluster).
func (g *generator) partitions(count int) {
	for i := 0; i < count; i++ {
		perm := g.rng.Perm(g.n)
		size := 2 + g.rng.Intn(g.n-1) // nodes involved: 2..n
		cut := 1 + g.rng.Intn(size-1) // split point: both sides non-empty
		from, to := g.window()
		g.rules = append(g.rules, fault.Rule{
			Kind: fault.Partition, From: from, To: to,
			A: append([]int(nil), perm[:cut]...),
			B: append([]int(nil), perm[cut:size]...),
		})
	}
}
