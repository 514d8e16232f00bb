package endure

import (
	"dynmds/internal/chaos"
	"dynmds/internal/fault"
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
	// Cycles is the number of crash/recover cycles.
	Cycles int
}

// SoakReport is the outcome of a rolling chaos soak.
type SoakReport struct {
	// Schedule is the generated rolling fault schedule.
	Schedule string
	// Result is the run, up to the failing checkpoint on a failure.
	Result *Result
	// Failure describes the first gate violation, nil on success.
	Failure *SoakFailure
}

// SoakFailure captures a failed soak gate with everything needed to
// reproduce it.
type SoakFailure struct {
	// FsckError is the violation and the checkpoint that found it.
	*FsckError
	// Shrunk is the minimized schedule that still reproduces the
	// failure (empty when shrinking was not applicable).
	Shrunk string
	// Evals is the number of shrink predicate evaluations spent.
	Evals int
	// RestartFrom is the snapshot file the shrink predicate restarted
	// candidate runs from (empty when shrinking ran from scratch): the
	// shrunk schedule replays from it.
	RestartFrom string
}

// Soak runs the endurance plane under a generated rolling-upgrade fault
// schedule. Every checkpoint is gated by simfsck; on a violation the
// schedule is shrunk to a minimal reproducer, restarting candidate runs
// from the last good checkpoint's snapshot when one exists (so each
// predicate evaluation replays only the failing tail, not the whole
// soak). The returned report always has Schedule and Result set, and
// Failure when a checkpoint failed.
func Soak(opt SoakOptions) (*SoakReport, error) {
	sched, err := chaos.GenerateRolling(chaos.RollingConfig{
		Seed:    opt.Seed,
		NumMDS:  opt.Base.Cluster.NumMDS,
		Cycles:  opt.Cycles,
		Horizon: opt.Base.Cluster.Duration,
	})
	if err != nil {
		return nil, err
	}
	opt.Base.Cluster.Faults = sched.String()
	rep := &SoakReport{Schedule: opt.Base.Cluster.Faults}

	res, err := Run(opt.Base)
	fe, failed := IsFsck(err)
	if err != nil && !failed {
		return nil, err
	}
	rep.Result = res
	if failed {
		rep.Failure = shrinkFailure(opt, sched, fe)
	}
	return rep, nil
}

// shrinkFailure minimizes the schedule behind a checkpoint simfsck
// violation. Candidate runs restart from the last snapshot before the
// failing checkpoint when the run wrote one — the fault-plane RNG
// resumes from its recorded draw position, so the replayed tail is
// self-consistent with the original run's prefix.
func shrinkFailure(opt SoakOptions, sched *fault.Schedule, fe *FsckError) *SoakFailure {
	f := &SoakFailure{FsckError: fe}
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
	shrunk, evals := chaos.ShrinkSchedule(sched, fails, 0) // the default budget
	f.Shrunk, f.Evals = shrunk.String(), evals
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
