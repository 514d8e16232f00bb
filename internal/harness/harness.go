// Package harness defines the experiments that regenerate every figure
// in the paper's evaluation (§5), the chaos budget, and the one cell
// runner every plan's cells go through, swept in parallel across CPU
// cores. Each simulation itself is single-threaded and deterministic;
// the sweep's parallelism never changes results, only wall-clock time.
package harness

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"dynmds/internal/chaos"
	"dynmds/internal/cluster"
	"dynmds/internal/endure"
	"dynmds/internal/plan"
)

// shared returns cfg with its namespace from the process-wide snapshot
// cache, unless the config brings its own: the first run for a given fs
// config generates and freezes it, and every other run thaws a private
// copy-on-write overlay over the shared base.
func shared(cfg cluster.Config) (cluster.Config, error) {
	if cfg.Snapshot == nil {
		key := cfg.FS
		key.Seed = cfg.Seed // replicate cluster.New's seeding
		snap, err := sharedSnapshot(key)
		if err != nil {
			return cfg, err
		}
		cfg.Snapshot = snap
	}
	return cfg, nil
}

// BuildError is a cell whose cluster could not be built from its
// config — a plan the namespace cannot carry, such as a hotspot path it
// lacks — found before the cell's first event.
type BuildError struct {
	Label string
	Err   error
}

func (e *BuildError) Error() string { return "harness: " + e.Label + ": " + e.Err.Error() }

func (e *BuildError) Unwrap() error { return e.Err }

// runCell runs one compiled cell, one of three ways. A cell with a
// checkpoint cadence runs on the endurance plane, endure.Restore from
// opt.Restore or else endure.Run, each simfsck'ing every checkpoint. A
// faulted cell captures a simfsck baseline, runs, drains and is
// checked. Any other cell just runs. A simfsck violation lands in the
// run; the error reports only what kept the cell from running.
func runCell(c plan.Compiled, opt Options) (PlanRun, error) {
	run := PlanRun{Compiled: c}
	cfg, err := shared(c.Cfg)
	if err != nil {
		return run, &BuildError{c.Label, err}
	}
	if cfg.Checkpoint > 0 {
		return run, run.endure(endureOptions(cfg, opt), opt.Restore)
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return run, &BuildError{c.Label, err}
	}
	var base chaos.Baseline
	if cfg.Faults != "" {
		base = chaos.Capture(cl)
	}
	run.Res = cl.Run()
	if cfg.Faults != "" {
		cl.Drain()
		run.Fsck = chaos.Fsck(cl, base)
	}
	return run, nil
}

// endure runs a cell with a checkpoint cadence on the endurance plane,
// from the snapshot at restore when there is one.
func (run *PlanRun) endure(eo endure.Options, restore string) error {
	var res *endure.Result
	var err error
	if restore != "" {
		res, err = endure.Restore(eo, restore)
	} else {
		res, err = endure.Run(eo)
	}
	if fe, ok := endure.IsFsck(err); ok {
		run.Fsck, err = fe, nil
	}
	if err != nil {
		return err
	}
	run.Endure, run.Res = res, res.Res
	return nil
}

// endureOptions are the endurance plane's options for a cell.
func endureOptions(cfg cluster.Config, opt Options) endure.Options {
	return endure.Options{Cluster: cfg, Every: cfg.Checkpoint, Dir: opt.CheckpointDir}
}

// sweepWorkers overrides the sweep pool size when positive; zero falls
// back to GOMAXPROCS. Atomic so tests and the CLI may set it without
// racing an in-flight sweep.
var sweepWorkers atomic.Int32

// SetSweepWorkers bounds the sweep worker pool. n <= 0 restores the
// default (GOMAXPROCS).
func SetSweepWorkers(n int) { sweepWorkers.Store(int32(n)) }

// poolSize returns the sweep's worker count on a machine with the given
// core count: want, or one worker per core when want <= 0.
func poolSize(want, cores int) int {
	if want <= 0 {
		return cores
	}
	return want
}

// forEachRun calls run(i) for i in [0, n) on a pool of poolSize
// goroutines and returns when all have finished. The semaphore is
// acquired before each goroutine is spawned, so at most that many exist
// at a time. Each run is an independent single-threaded simulation, so
// the pool changes wall-clock time only, never results.
func forEachRun(n int, run func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, poolSize(int(sweepWorkers.Load()), runtime.GOMAXPROCS(0)))
	for i := range n {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			run(i)
		}(i)
	}
	wg.Wait()
}

// sweep runs every cell through runCell on the worker pool (GOMAXPROCS
// wide unless SetSweepWorkers / mdsim -workers says otherwise) and
// returns the runs in cell order. Every failure is reported, joined in
// cell order.
func sweep(cells []plan.Compiled, opt Options) ([]PlanRun, error) {
	runs := make([]PlanRun, len(cells))
	errs := make([]error, len(cells))
	forEachRun(len(cells), func(i int) { runs[i], errs[i] = runCell(cells[i], opt) })
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return runs, nil
}

// Options tunes experiment scale, seed and key overrides, so the same
// definitions serve quick CI runs, full paper-scale regenerations and
// mdsim -set; it is the plan compiler's option set.
type Options = plan.Options

// Experiment is one regenerable figure: its plans plus the renderer
// that prints the figure from their runs.
type Experiment struct {
	ID          string
	Title       string
	Description string
	// Build returns the experiment's plans and its renderer, which sees
	// the plans' runs in plan order, each plan's in matrix order.
	Build func(opt Options) ([]*plan.Plan, Renderer, error)
}

// Renderer prints an experiment's figure from its plans' runs.
type Renderer func(w io.Writer, runs []PlanRun) error

// compile builds the experiment's plans and compiles their cells, in
// plan order.
func (e Experiment) compile(opt Options) ([]plan.Compiled, Renderer, error) {
	ps, render, err := e.Build(opt)
	var cells []plan.Compiled
	for _, p := range ps {
		if err != nil {
			break
		}
		var c []plan.Compiled
		c, err = p.Compile(opt)
		cells = append(cells, c...)
	}
	return cells, render, err
}

// Check reports, without simulating, whether the experiment can run
// under opt: its plans compile, every override lands, and a snapshot
// to restore from belongs to the run.
func (e Experiment) Check(opt Options) error {
	cells, _, err := e.compile(opt)
	if err == nil && opt.Restore != "" {
		err = endure.ValidateSnapshot(endureOptions(cells[0].Cfg, opt), opt.Restore)
	}
	return err
}

// runs sweeps every cell of the experiment through the shared worker
// pool.
func (e Experiment) runs(opt Options) ([]PlanRun, Renderer, error) {
	cells, render, err := e.compile(opt)
	if err != nil {
		return nil, nil, err
	}
	runs, err := sweep(cells, opt)
	return runs, render, err
}

// Run executes the experiment and prints its figure, then a failure
// block for every cell that failed simfsck, the first maxShrinks with
// their schedules shrunk. Any such cell fails the run once the report
// is out.
func (e Experiment) Run(w io.Writer, opt Options) error {
	runs, render, err := e.runs(opt)
	if err != nil {
		return err
	}
	shrinkFailures(runs, opt, runCell)
	if err := render(w, runs); err != nil {
		return err
	}
	failed := 0
	for i := range runs {
		if runs[i].Fsck != nil {
			writeFailure(w, &runs[i], opt.Restore)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d cells failed simfsck; the report ends with their replay lines", failed, len(runs))
	}
	return nil
}

// All returns every experiment in figure order.
func All() []Experiment {
	return []Experiment{
		{
			ID:    "fig2",
			Title: "Figure 2: MDS performance vs cluster size",
			Description: "Average per-MDS throughput as file system, cluster size and " +
				"client base scale together, for all five strategies.",
			Build: texts(renderFig2, fig2Src),
		},
		{
			ID:    "fig3",
			Title: "Figure 3: cache consumed by prefix inodes",
			Description: "Percentage of MDS cache devoted to prefix directory inodes " +
				"as the system scales, per strategy.",
			Build: texts(renderFig3, fig3Src),
		},
		{
			ID:    "fig4",
			Title: "Figure 4: cache hit rate vs cache size",
			Description: "Hit rate as a function of cache size relative to total " +
				"metadata size, per strategy.",
			Build: fig4,
		},
		{
			ID:    "fig5",
			Title: "Figure 5: throughput under a workload shift",
			Description: "Min/avg/max per-MDS throughput over time as half the " +
				"clients migrate and create files in one subtree: dynamic vs static.",
			Build: texts(renderFig5, "plan fig5\nmatrix strategy=DynamicSubtree,StaticSubtree\n"+shift),
		},
		{
			ID:    "fig6",
			Title: "Figure 6: forwarded requests under a workload shift",
			Description: "Fraction of client requests forwarded over time for the " +
				"same shifted workload: dynamic vs static.",
			Build: texts(renderFig6, "plan fig6\nmatrix strategy=DynamicSubtree,StaticSubtree\n"+shift),
		},
		{
			ID:    "fig7",
			Title: "Figure 7: flash crowd traffic control",
			Description: "Cluster replies and forwards per second while thousands of " +
				"clients hit one file: traffic control off vs on.",
			Build: texts(renderFig7, "plan fig7\nmatrix replicate-at=off,300\n"+flash),
		},
	}
}

// ByID finds an experiment among the figures, the extras and the chaos
// budget.
func ByID(id string) (Experiment, bool) {
	for _, e := range append(All(), append(Extras(), Chaos())...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
