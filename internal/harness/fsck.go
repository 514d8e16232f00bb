package harness

import (
	"fmt"
	"io"
	"strings"

	"dynmds/internal/chaos"
	"dynmds/internal/endure"
	"dynmds/internal/fault"
	"dynmds/internal/plan"
)

// Of the cells that failed simfsck, the first maxShrinks in cell order
// have their fault schedules shrunk, spending at most shrinkBudget
// predicate evaluations each. Both are fixed, so a report is a pure
// function of the seed and the -set overrides.
const (
	shrinkBudget = 120
	maxShrinks   = 4
)

// shrunk is a failed cell's fault schedule cut down by
// chaos.ShrinkSchedule.
type shrunk struct {
	// Faults is the smallest schedule found that still fails simfsck.
	Faults string
	// Evals is the number of predicate evaluations spent.
	Evals int
	// From is the snapshot every candidate restored from; empty when
	// each re-ran the cell from t=0.
	From string
}

// shrinkFailures shrinks the schedules of the first maxShrinks cells
// that failed simfsck, running each candidate through run. A candidate
// of a checkpointed cell restores from the last snapshot the run had
// before its failing checkpoint — its last good checkpoint's file, else
// the snapshot it resumed from — so it replays only the failing tail;
// any other candidate re-runs the cell. Only a simfsck violation counts
// as a reproduction: a candidate the snapshot cannot take (a schedule
// emptied past the fault plane's presence check) does not.
func shrinkFailures(runs []PlanRun, opt Options, run func(plan.Compiled, Options) (PlanRun, error)) {
	n := 0
	for i := range runs {
		r := &runs[i]
		if r.Fsck == nil {
			continue
		}
		if n++; n > maxShrinks {
			return
		}
		sched, err := fault.ParseSchedule(r.Cfg.Faults)
		if err != nil || sched.Empty() {
			continue // no schedule to shrink (a compiled cell's always parses)
		}
		from := ""
		if r.Endure != nil {
			from = opt.Restore
			if rows := r.Endure.Rows; len(rows) > 0 && rows[len(rows)-1].Path != "" {
				from = rows[len(rows)-1].Path
			}
		}
		cfg := r.Cfg
		cut, evals := chaos.ShrinkSchedule(sched, func(cand *fault.Schedule) bool {
			cfg.Faults = cand.String()
			c, err := run(plan.Compiled{Label: r.Label, Cfg: cfg}, Options{Restore: from})
			return err == nil && c.Fsck != nil
		}, shrinkBudget)
		r.shrunk = &shrunk{Faults: cut.String(), Evals: evals, From: from}
	}
}

// writeFailure prints the failure block of a cell that failed simfsck:
// its label, the checkpoint that found the violation when there is one,
// the violation, the cell's schedule, the shrunk schedule and what it
// took, and the command that replays the failure — the shrunk schedule
// from the snapshot its candidates restored from, if it was shrunk,
// else the cell itself from restore, the snapshot it resumed from.
func writeFailure(w io.Writer, r *PlanRun, restore string) {
	fmt.Fprintf(w, "FAIL %s\n", r.Label)
	violation := r.Fsck
	if fe, ok := endure.IsFsck(r.Fsck); ok {
		fmt.Fprintf(w, "  checkpoint %d (t=%.3fs)\n", fe.Checkpoint, fe.At.Seconds())
		violation = fe.Err
	}
	fmt.Fprintf(w, "  %s\n", strings.ReplaceAll(violation.Error(), "\n", "\n  "))
	cfg := r.Cfg
	if cfg.Faults != "" {
		fmt.Fprintf(w, "  faults: %s\n", cfg.Faults)
	}
	if s := r.shrunk; s != nil {
		text := s.Faults
		if text == "" {
			text = "none (fails without faults)"
		}
		fmt.Fprintf(w, "  shrunk in %d evals: %s\n", s.Evals, text)
		cfg.Faults, restore = s.Faults, s.From
	}
	var more []string
	if restore != "" {
		more = []string{"-restore", restore}
	}
	fmt.Fprintf(w, "  replay: %s\n", plan.CommandLine(cfg, more...))
}
