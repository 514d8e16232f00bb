// Package harness defines the experiments that regenerate every figure
// in the paper's evaluation (§5), and a parallel sweep runner that
// executes independent simulation configurations across CPU cores. Each
// simulation itself is single-threaded and deterministic; the sweep's
// parallelism never changes results, only wall-clock time.
package harness

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"dynmds/internal/cluster"
	"dynmds/internal/plan"
)

// RunSpec names one simulation configuration: a compiled plan cell, or
// a label and a config put together by hand.
type RunSpec = plan.Compiled

// build assembles the cluster for one configuration. Unless the config
// brings its own snapshot, the namespace comes from the process-wide
// snapshot cache: the first run for a given fs config generates and
// freezes it, and every other run thaws a private copy-on-write overlay
// over the shared base.
func build(cfg cluster.Config) (*cluster.Cluster, error) {
	if cfg.Snapshot == nil {
		key := cfg.FS
		key.Seed = cfg.Seed // replicate cluster.New's seeding
		snap, err := sharedSnapshot(key)
		if err != nil {
			return nil, err
		}
		cfg.Snapshot = snap
	}
	return cluster.New(cfg)
}

// RunOne builds and runs a single configuration.
func RunOne(spec RunSpec) (*cluster.Result, error) {
	cl, err := build(spec.Cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", spec.Label, err)
	}
	return cl.Run(), nil
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

// forEachRun calls run(i) for every spec on a pool of poolSize
// goroutines and returns when all have finished. The semaphore is
// acquired before each goroutine is spawned, so at most that many exist
// at a time. Each run is an independent single-threaded simulation, so
// the pool changes wall-clock time only, never results.
func forEachRun(specs []RunSpec, run func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, poolSize(int(sweepWorkers.Load()), runtime.GOMAXPROCS(0)))
	for i := range specs {
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

// Sweep runs all specs on the worker pool (GOMAXPROCS wide unless
// SetSweepWorkers / mdsim -workers says otherwise) and returns results
// in spec order. All failures are
// reported, joined in spec order.
func Sweep(specs []RunSpec) ([]*cluster.Result, error) {
	results := make([]*cluster.Result, len(specs))
	errs := make([]error, len(specs))
	forEachRun(specs, func(i int) { results[i], errs[i] = RunOne(specs[i]) })
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// Options tunes experiment scale, seed and key overrides, so the same
// definitions serve quick CI runs, full paper-scale regenerations and
// mdsim -set; it is the plan compiler's option set.
type Options = plan.Options

// Experiment is one regenerable figure: a plan plus the renderer that
// prints the figure from the plan's runs.
type Experiment struct {
	ID          string
	Title       string
	Description string
	// Build returns the experiment's plan and its renderer.
	Build func(opt Options) (*plan.Plan, Renderer, error)
}

// Renderer prints an experiment's figure from its plan's runs.
type Renderer func(w io.Writer, runs []PlanRun) error

// Check reports, without simulating, whether the experiment can run
// under opt: the plan compiles and every override lands.
func (e Experiment) Check(opt Options) error {
	p, _, err := e.Build(opt)
	if err == nil {
		_, err = p.Compile(opt)
	}
	return err
}

// Run executes the experiment and prints its figure.
func (e Experiment) Run(w io.Writer, opt Options) error {
	p, render, err := e.Build(opt)
	if err != nil {
		return err
	}
	runs, err := RunPlan(p, opt)
	if err != nil {
		return err
	}
	return render(w, runs)
}

// All returns every experiment in figure order.
func All() []Experiment {
	return []Experiment{
		{
			ID:    "fig2",
			Title: "Figure 2: MDS performance vs cluster size",
			Description: "Average per-MDS throughput as file system, cluster size and " +
				"client base scale together, for all five strategies.",
			Build: fig2,
		},
		{
			ID:    "fig3",
			Title: "Figure 3: cache consumed by prefix inodes",
			Description: "Percentage of MDS cache devoted to prefix directory inodes " +
				"as the system scales, per strategy.",
			Build: fig3,
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
			Build: fig5,
		},
		{
			ID:    "fig6",
			Title: "Figure 6: forwarded requests under a workload shift",
			Description: "Fraction of client requests forwarded over time for the " +
				"same shifted workload: dynamic vs static.",
			Build: fig6,
		},
		{
			ID:    "fig7",
			Title: "Figure 7: flash crowd traffic control",
			Description: "Cluster replies and forwards per second while thousands of " +
				"clients hit one file: traffic control off vs on.",
			Build: fig7,
		},
	}
}

// ByID finds an experiment among the figures and the extras.
func ByID(id string) (Experiment, bool) {
	for _, e := range append(All(), Extras()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
