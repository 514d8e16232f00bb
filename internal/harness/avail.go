package harness

import (
	"fmt"
	"io"
	"slices"

	"dynmds/internal/cluster"
	"dynmds/internal/fault"
	"dynmds/internal/metrics"
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

// availSrc is the availability experiment: for every strategy, one of
// eight nodes crashes mid-run and recovers later, next to a fault-free
// control of the same configuration. The control's schedule is one rule
// of probability zero: it arms the fault-mode plumbing (client retries,
// timeouts, suspicion) without any fault, so the pair differs only in
// the crash — the property the control leans on (tested in
// internal/cluster).
const availSrc = `plan avail
quick 1
fs users=200
cluster mds=8 cache=2500 log=2000
traffic clients=200 think=10ms
matrix strategy=StaticSubtree,DynamicSubtree,DirHash,LazyHybrid,FileHash
matrix faults=crash@15000ms-25000ms:mds2,drop@0:all
warmup 5s
duration 40s
quick matrix faults=crash@8000ms-13000ms:mds2,drop@0:all
quick warmup 3s
quick duration 20s
`

// renderAvail reduces each strategy's pair of per-second completion
// series to the throughput dip and the detection and recovery times.
func renderAvail(w io.Writer, runs []PlanRun) error {
	fmt.Fprintln(w, "Extension: availability under an injected crash "+
		"(1 of 8 nodes down for a window, then log-warmed recovery; "+
		"dip and recovery measured against a fault-free control run)")
	tb := metrics.NewTable("strategy", "base ops/s", "dip ops/s", "dip frac",
		"detect(s)", "recover(s)", "retries", "timed_out", "warmed")
	for i := 0; i+1 < len(runs); i += 2 {
		m, err := reduceAvail(&runs[i], runs[i+1].Res)
		if err != nil {
			return err
		}
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
}

// reduceAvail computes the availability metrics from a faulty run and
// its fault-free control; the crash window and victim are the faulty
// cell's schedule's.
func reduceAvail(run *PlanRun, control *cluster.Result) (availMetrics, error) {
	sched, err := fault.ParseSchedule(run.Cfg.Faults)
	var w []fault.Rule // the node events: crashes, then recoveries
	if err == nil {
		w = slices.DeleteFunc(sched.Rules, func(r fault.Rule) bool { return r.Kind > fault.Recover })
	}
	if len(w) != 2 || w[0].Kind != fault.Crash || w[1].Kind != fault.Recover {
		return availMetrics{}, fmt.Errorf("avail: %s: want one crash window, not %q", run.Label, run.Cfg.Faults)
	}
	r, victim := run.Res, w[0].Node
	crashAt, recoverAt := w[0].From, w[1].From
	m := availMetrics{
		Strategy:        r.Strategy,
		Retries:         r.Retries,
		TimedOut:        r.TimedOut,
		DetectSeconds:   -1,
		RecoverySeconds: -1,
	}
	if ev, ok := eventOn(r.Downs, victim); ok {
		m.DetectSeconds = (ev.At - crashAt).Seconds()
	}
	if ev, ok := eventOn(r.Recoveries, victim); ok {
		m.Warmed = ev.Warmed
	}
	s, cs := r.CompletedOps, control.CompletedOps
	if s == nil || cs == nil {
		return m, nil
	}
	bucket := func(t sim.Time) int { return int(t / r.Bucket) }
	// Baseline: control mean rate from warmup to the crash.
	var sum float64
	n := 0
	for i := bucket(run.Cfg.Warmup); i < bucket(crashAt); i++ {
		sum += cs.Rate(i)
		n++
	}
	if n > 0 {
		m.Baseline = sum / float64(n)
	}
	// Dip: worst bucket wholly inside the outage, absolute and relative
	// to the control's same bucket.
	first := true
	for i := bucket(crashAt) + 1; i < bucket(recoverAt); i++ {
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
	for i := bucket(recoverAt); i < bucket(run.Cfg.Duration); i++ {
		if c := cs.Rate(i); c > 0 && s.Rate(i) >= 0.9*c {
			m.RecoverySeconds = (s.BucketStart(i) - recoverAt).Seconds()
			break
		}
	}
	return m, nil
}
