package endure

import (
	"fmt"

	"dynmds/internal/chaos"
	"dynmds/internal/fault"
	"dynmds/internal/harness"
	"dynmds/internal/plan"
	"dynmds/internal/sim"
)

// SoakOptions configures a rolling chaos soak: an endurance run under a
// rolling-upgrade fault schedule, with simfsck gating every checkpoint
// and shrink-from-checkpoint on failure.
type SoakOptions struct {
	// Base is the endurance configuration; its cluster Faults field is
	// overwritten with the generated rolling schedule.
	Base Options
	// Seed keys the rolling schedule's jitter.
	Seed int64
	// Cycles is the number of crash/recover cycles (0 means 10).
	Cycles int
	// Outage is the per-cycle downtime (0 derives it from the spacing).
	Outage sim.Time
	// ShrinkBudget caps predicate evaluations during shrinking
	// (0 means the harness default).
	ShrinkBudget int
	// MaxDrift, when positive, fails the soak if throughput over the
	// curve degrades by more than this fraction (1 − last/peak).
	MaxDrift float64
}

// SoakReport is the outcome of a rolling chaos soak.
type SoakReport struct {
	// Schedule is the generated rolling fault schedule.
	Schedule string
	// Result is the finished run (nil when a checkpoint failed simfsck).
	Result *Result
	// Drift is the throughput degradation over the curve, when Result
	// is present.
	Drift float64
	// Failure describes the first gate violation, nil on success.
	Failure *SoakFailure
}

// SoakFailure captures a failed soak gate with everything needed to
// reproduce it.
type SoakFailure struct {
	// Checkpoint is the index of the checkpoint that failed (−1 for a
	// run-level failure such as excessive drift).
	Checkpoint int
	// Err is the violation.
	Err string
	// Shrunk is the minimized schedule that still reproduces the
	// failure (empty when shrinking was not applicable).
	Shrunk string
	// Evals is the number of shrink predicate evaluations spent.
	Evals int
	// RestartFrom is the snapshot file the shrink predicate restarted
	// candidate runs from (empty when shrinking ran from scratch).
	RestartFrom string
	// Repro is a one-line reproduction command.
	Repro string
}

// Soak runs the endurance plane under a generated rolling-upgrade fault
// schedule. Every checkpoint is gated by simfsck; on a violation the
// schedule is shrunk to a minimal reproducer, restarting candidate runs
// from the last good checkpoint's snapshot when one exists (so each
// predicate evaluation replays only the failing tail, not the whole
// soak). The returned report always has Schedule set; exactly one of
// Result or Failure is set.
func Soak(opt SoakOptions) (*SoakReport, error) {
	sched := chaos.GenerateRolling(chaos.RollingConfig{
		Seed:    opt.Seed,
		NumMDS:  opt.Base.Cluster.NumMDS,
		Cycles:  opt.Cycles,
		Horizon: opt.Base.Cluster.Duration,
		Outage:  opt.Outage,
	})
	opt.Base.Cluster.Faults = sched.String()
	rep := &SoakReport{Schedule: opt.Base.Cluster.Faults}

	res, err := Run(opt.Base)
	if err != nil {
		fe, ok := IsFsck(err)
		if !ok {
			return nil, err
		}
		rep.Failure = shrinkFailure(opt, sched, fe)
		return rep, nil
	}
	rep.Result, rep.Drift = res, res.Drift()
	if opt.MaxDrift > 0 && rep.Drift > opt.MaxDrift {
		rep.Failure = &SoakFailure{
			Checkpoint: -1,
			Err: fmt.Sprintf("throughput drift %.3f exceeds the %.3f gate (curve peak→last)",
				rep.Drift, opt.MaxDrift),
			Repro: ReproLine(&opt.Base, rep.Schedule, ""),
		}
		rep.Result = nil
	}
	return rep, nil
}

// shrinkFailure minimizes the schedule behind a checkpoint simfsck
// violation. Candidate runs restart from the last snapshot before the
// failing checkpoint when the run wrote one — the fault-plane RNG
// resumes from its recorded draw position, so the replayed tail is
// self-consistent with the original run's prefix.
func shrinkFailure(opt SoakOptions, sched *fault.Schedule, fe *FsckError) *SoakFailure {
	f := &SoakFailure{Checkpoint: fe.Checkpoint, Err: fe.Err.Error()}
	f.RestartFrom = priorSnapshot(&opt.Base, fe.Checkpoint)

	fails := func(cand *fault.Schedule) bool {
		c := opt.Base
		c.Cluster.Faults = cand.String()
		c.Dir = "" // candidates probe only; never overwrite the soak's snapshots
		var err error
		if f.RestartFrom != "" {
			_, err = Restore(c, f.RestartFrom)
		} else {
			_, err = Run(c)
		}
		// Only the original violation class counts: restore errors
		// (e.g. a candidate emptied past the fault plane's presence
		// check) are not reproductions.
		_, isFsck := IsFsck(err)
		return isFsck
	}
	shrunk, evals := harness.ShrinkSchedule(sched, fails, opt.ShrinkBudget)
	f.Shrunk, f.Evals = shrunk.String(), evals
	f.Repro = ReproLine(&opt.Base, f.Shrunk, f.RestartFrom)
	return f
}

// priorSnapshot returns the snapshot path for the checkpoint before
// failed, or "" when there is none (failed == 0 or writing disabled).
func priorSnapshot(o *Options, failed int) string {
	if o.Dir == "" || failed <= 0 {
		return ""
	}
	return snapshotPath(o.Dir, failed-1)
}

// ReproLine renders the one-line mdsim command that reproduces a soak
// failure: the run's configuration spelled against the default plan
// (plan.CommandLine) with the given fault schedule, the checkpoint
// cadence, and the snapshot the shrink restarted from, so the failure
// replays from mid-run, not from scratch.
func ReproLine(o *Options, faults, restartFrom string) string {
	cfg := o.Cluster
	cfg.Faults = faults
	more := []string{"-checkpoint-every", fmt.Sprint(o.Every.Seconds())}
	if restartFrom != "" {
		more = append(more, "-restore", restartFrom)
	}
	return plan.CommandLine(cfg, more...)
}
