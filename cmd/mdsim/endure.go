package main

import (
	"fmt"
	"io"
	"time"

	"dynmds/internal/cluster"
	"dynmds/internal/endure"
	"dynmds/internal/sim"
)

// runEndure executes the endurance plane on the default plan's run: a
// plain aging run, a restore continuation, or a rolling chaos soak.
// Flag/snapshot disagreements exit 2 before any event runs; simfsck or
// gate violations exit 1.
func runEndure(c *invocation, cfg cluster.Config) int {
	opt := endure.Options{
		Cluster: cfg,
		Every:   sim.FromSeconds(c.every),
		Dir:     c.dir,
		OnRow:   func(r endure.Row) { printEndureRow(c.stdout, r) },
	}
	// Fail-fast validation: option errors, and — for -restore — snapshot
	// version and config-hash mismatches are all usage errors, caught
	// before the simulation starts.
	var err error
	switch {
	case c.soakCycles > 0 && (c.restore != "" || cfg.Faults != ""):
		err = fmt.Errorf("-soak-cycles generates its own fault schedule; drop -restore and -set faults")
	case c.restore != "":
		err = endure.ValidateSnapshot(opt, c.restore)
	default:
		check := opt
		err = check.Normalize()
	}
	if err != nil {
		return c.usage("%v", err)
	}

	w := c.stdout
	start := time.Now()
	if c.soakCycles > 0 {
		return runSoak(c, opt, start)
	}
	var res *endure.Result
	if c.restore != "" {
		fmt.Fprintf(w, "restoring from %s\n", c.restore)
		res, err = endure.Restore(opt, c.restore)
	} else {
		res, err = endure.Run(opt)
	}
	if err != nil {
		if fe, ok := endure.IsFsck(err); ok {
			fmt.Fprintf(w, "simfsck: FAIL at checkpoint %d\n%v\n", fe.Checkpoint, fe.Err)
			return 1
		}
		return c.fail(err)
	}
	fmt.Fprint(w, res.CurveTable())
	fmt.Fprintf(w, "degradation drift: %.4f (1 - last/peak ops/s)\n", res.Drift())
	fmt.Fprintf(w, "digest: %s\n", res.Digest)
	fmt.Fprintf(w, "wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// runSoak executes the rolling chaos soak and renders its report.
func runSoak(c *invocation, opt endure.Options, start time.Time) int {
	w := c.stdout
	rep, err := endure.Soak(endure.SoakOptions{
		Base:   opt,
		Seed:   c.opt.Seed,
		Cycles: c.soakCycles,
	})
	if err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(w, "soak schedule: %s\n", rep.Schedule)
	if rep.Failure != nil {
		fail := rep.Failure
		fmt.Fprintf(w, "soak: FAIL (checkpoint %d)\n%s\n", fail.Checkpoint, fail.Err)
		if fail.Shrunk != "" {
			fmt.Fprintf(w, "shrunk schedule (%d evals): %s\n", fail.Evals, fail.Shrunk)
		}
		if fail.RestartFrom != "" {
			fmt.Fprintf(w, "shrink restarted from checkpoint: %s\n", fail.RestartFrom)
		}
		fmt.Fprintf(w, "repro: %s\n", fail.Repro)
		return 1
	}
	fmt.Fprint(w, rep.Result.CurveTable())
	fmt.Fprintf(w, "soak: clean — %d checkpoints simfsck-verified, drift %.4f\n",
		len(rep.Result.Rows), rep.Drift)
	fmt.Fprintf(w, "wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// printEndureRow is the per-checkpoint progress line.
func printEndureRow(w io.Writer, r endure.Row) {
	line := fmt.Sprintf("ck %2d t=%6.1fs: %8.0f ops/s, %6d tombstones (%.4f), lazy-miss %.4f, live %7d",
		r.Index, r.At.Seconds(), r.OpsPerSec, r.Tombstones, r.TombstoneDensity,
		r.LazyMissRate, r.LiveInodes)
	if r.Path != "" {
		line += " -> " + r.Path
	}
	fmt.Fprintln(w, line)
}
