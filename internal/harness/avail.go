package harness

import (
	"fmt"
	"io"

	"dynmds/internal/cluster"
	"dynmds/internal/metrics"
	"dynmds/internal/plan"
	"dynmds/internal/sim"
)

// availMetrics summarises one strategy's availability through a
// scheduled crash/recovery cycle. Because cluster throughput is not
// stationary (caches keep churning as the touched namespace grows),
// every ratio is computed bucket-by-bucket against a fault-free control
// run of the same seed and configuration, not against a fixed pre-crash
// average.
type availMetrics struct {
	Strategy string
	// Baseline is the control run's mean completed-op rate (ops/s,
	// whole cluster) between warmup and the crash instant.
	Baseline float64
	// Dip is the faulty run's lowest per-second completion rate during
	// the outage; DipFrac is the lowest faulty/control ratio over the
	// same buckets (1.0 = unaffected, 0 = total outage).
	Dip     float64
	DipFrac float64
	// DetectSeconds is crash → suspicion-confirmed down; -1 if the
	// cluster never confirmed the failure.
	DetectSeconds float64
	// RecoverySeconds is the time from the node's recovery until the
	// faulty run's completion rate regained 90% of the control run's
	// rate in the same bucket; -1 if it never did within the run.
	RecoverySeconds float64
	Retries         uint64
	TimedOut        uint64
	// Warmed is the number of cache records preloaded from the bounded
	// log at recovery.
	Warmed int
}

// availSpec describes the shared crash scenario.
type availSpec struct {
	cfg       cluster.Config // the faulty run; control clears Faults
	crashAt   sim.Time
	recoverAt sim.Time
	victim    int
}

// inertSchedule enables fault-mode plumbing without any fault: the only
// rule has probability zero, so the run is bit-identical to a no-fault
// run with the same resilience knobs — the property the control run
// leans on (tested in internal/cluster).
const inertSchedule = "drop@0:all"

func availScenario(opt Options, strategy string) availSpec {
	cfg := cluster.Default()
	cfg.Seed = opt.Seed
	cfg.Strategy = strategy
	cfg.NumMDS = 8
	cfg.ClientsPerMDS = 25
	cfg.FS.Users = 200
	cfg.MDS.CacheCapacity = 2500
	cfg.Client.ThinkMean = 10 * sim.Millisecond
	cfg.Duration = 40 * sim.Second
	cfg.Warmup = 5 * sim.Second
	s := availSpec{cfg: cfg, crashAt: 15 * sim.Second, recoverAt: 25 * sim.Second, victim: 2}
	if opt.Quick {
		s.cfg.Duration = 20 * sim.Second
		s.cfg.Warmup = 3 * sim.Second
		s.crashAt, s.recoverAt = 8*sim.Second, 13*sim.Second
	}
	s.cfg.Faults = fmt.Sprintf("crash@%dms-%dms:mds%d",
		int64(s.crashAt/sim.Millisecond), int64(s.recoverAt/sim.Millisecond), s.victim)
	return s
}

// availExt is the availability experiment: the crash/recovery
// scenario for every strategy — one of eight nodes killed mid-run and
// recovered later — next to a fault-free control of the same
// configuration; each pair's per-second completion series reduces to
// the throughput dip and the detection and recovery times it prints.
func availExt(opt Options) (*plan.Plan, Renderer, error) {
	p := &plan.Plan{
		Name: "avail",
		Matrix: []plan.Axis{
			{Key: "strategy", Values: cluster.Strategies},
			{Key: "run", Values: []string{"fault", "control"}},
		},
		Tweak: func(cfg *cluster.Config, cell plan.Cell) {
			*cfg = availScenario(opt, cell["strategy"]).cfg
			if cell["run"] == "control" {
				cfg.Faults = inertSchedule
			}
		},
	}
	return p, func(w io.Writer, runs []PlanRun) error {
		fmt.Fprintln(w, "Extension: availability under an injected crash "+
			"(1 of 8 nodes down for a window, then log-warmed recovery; "+
			"dip and recovery measured against a fault-free control run)")
		tb := metrics.NewTable("strategy", "base ops/s", "dip ops/s", "dip frac",
			"detect(s)", "recover(s)", "retries", "timed_out", "warmed")
		for i, s := range cluster.Strategies {
			m := reduceAvail(runs[2*i].Res, runs[2*i+1].Res, availScenario(opt, s))
			tb.AddRow(m.Strategy,
				int(m.Baseline),
				int(m.Dip),
				fmt.Sprintf("%.3f", m.DipFrac),
				fmt.Sprintf("%.2f", m.DetectSeconds),
				fmt.Sprintf("%.1f", m.RecoverySeconds),
				int(m.Retries),
				int(m.TimedOut),
				m.Warmed)
		}
		_, err := io.WriteString(w, tb.String())
		return err
	}, nil
}

// reduceAvail computes the availability metrics from a faulty run and
// its fault-free control.
func reduceAvail(r, control *cluster.Result, sp availSpec) availMetrics {
	m := availMetrics{
		Strategy:        r.Strategy,
		Retries:         r.Retries,
		TimedOut:        r.TimedOut,
		DetectSeconds:   -1,
		RecoverySeconds: -1,
	}
	if ev, ok := eventOn(r.Downs, sp.victim); ok {
		m.DetectSeconds = (ev.At - sp.crashAt).Seconds()
	}
	if ev, ok := eventOn(r.Recoveries, sp.victim); ok {
		m.Warmed = ev.Warmed
	}
	s, cs := r.CompletedOps, control.CompletedOps
	if s == nil || cs == nil {
		return m
	}
	bucket := func(t sim.Time) int { return int(t / r.Bucket) }
	// Baseline: control mean rate from warmup to the crash.
	var sum float64
	n := 0
	for i := bucket(sp.cfg.Warmup); i < bucket(sp.crashAt); i++ {
		sum += cs.Rate(i)
		n++
	}
	if n > 0 {
		m.Baseline = sum / float64(n)
	}
	// Dip: worst bucket wholly inside the outage, absolute and relative
	// to the control's same bucket.
	first := true
	for i := bucket(sp.crashAt) + 1; i < bucket(sp.recoverAt); i++ {
		rate := s.Rate(i)
		if first || rate < m.Dip {
			m.Dip = rate
		}
		if c := cs.Rate(i); c > 0 {
			if frac := rate / c; first || frac < m.DipFrac {
				m.DipFrac = frac
			}
		}
		first = false
	}
	// Recovery: first post-recovery bucket back at 90% of the control.
	for i := bucket(sp.recoverAt); i < bucket(sp.cfg.Duration); i++ {
		if c := cs.Rate(i); c > 0 && s.Rate(i) >= 0.9*c {
			m.RecoverySeconds = (s.BucketStart(i) - sp.recoverAt).Seconds()
			break
		}
	}
	return m
}
