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
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"dynmds/internal/cluster"
)

// RunSpec names one simulation configuration.
type RunSpec struct {
	Label string
	Cfg   cluster.Config
}

// RunOne builds and runs a single configuration. Unless the spec brings
// its own snapshot, the namespace comes from the process-wide snapshot
// cache: the first run for a given fs config generates and freezes it,
// and every other run thaws a private copy-on-write overlay over the
// shared base.
func RunOne(spec RunSpec) (*cluster.Result, error) {
	cfg := spec.Cfg
	// Apply the process-wide shard request to runs that can use it: the
	// shared OSD pool is incompatible with sharding, and a spec that
	// already chose a count keeps it.
	if k := Shards(); k > 1 && cfg.Shards == 0 && cfg.OSDs == 0 {
		cfg.Shards = k
	}
	if cfg.Snapshot == nil {
		key := cfg.FS
		key.Seed = cfg.Seed // replicate cluster.New's seeding
		snap, err := sharedSnapshot(key)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", spec.Label, err)
		}
		cfg.Snapshot = snap
	}
	cl, err := cluster.New(cfg)
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

// sweepShards, when > 1, asks RunOne to execute every compatible run on
// the sharded (conservative parallel) engine with that many shards.
var sweepShards atomic.Int32

// SetShards sets the per-run shard count applied by RunOne (mdsim
// -shards). n <= 1 restores serial execution.
func SetShards(n int) { sweepShards.Store(int32(n)) }

// Shards returns the requested per-run shard count (0 or 1 = serial).
func Shards() int { return int(sweepShards.Load()) }

// clampLogOnce gates the oversubscription warning to one line per
// process, however many sweeps run.
var clampLogOnce sync.Once

// SweepWorkers returns the current sweep pool size. When sharded runs
// are active each run occupies Shards() cores, so the pool is capped at
// workers × shards <= GOMAXPROCS — the shard count wins and the worker
// pool shrinks (to a floor of one worker), logged once.
func SweepWorkers() int {
	w := int(sweepWorkers.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if k := Shards(); k > 1 {
		budget := runtime.GOMAXPROCS(0) / k
		if budget < 1 {
			budget = 1
		}
		if w > budget {
			clampLogOnce.Do(func() {
				fmt.Fprintf(os.Stderr,
					"harness: clamping sweep workers %d -> %d so workers x %d shards fit %d cores\n",
					w, budget, k, runtime.GOMAXPROCS(0))
			})
			w = budget
		}
	}
	return w
}

// Sweep runs all specs on a worker pool of SweepWorkers goroutines
// (GOMAXPROCS unless overridden via SetSweepWorkers / mdsim -workers)
// and returns results in spec order. The semaphore is acquired before
// each goroutine is spawned, so at most SweepWorkers workers exist at a
// time (rather than one goroutine per spec all blocking on the
// semaphore). All failures are reported, joined in spec order.
func Sweep(specs []RunSpec) ([]*cluster.Result, error) {
	results := make([]*cluster.Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, SweepWorkers())
	for i, spec := range specs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, spec RunSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = RunOne(spec)
		}(i, spec)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// Options tunes experiment scale so the same definitions serve quick CI
// runs and full paper-scale regenerations.
type Options struct {
	// Scale multiplies durations and divides sweep density; 1.0 = the
	// full experiment, smaller = quicker.
	Quick bool
	Seed  int64
	// NetModel selects the message-fabric latency model for every run
	// ("" = fixed; see internal/net).
	NetModel string
}

// Experiment is one regenerable figure.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(w io.Writer, opt Options) error
}

// All returns every experiment in figure order.
func All() []Experiment {
	return []Experiment{
		{
			ID:    "fig2",
			Title: "Figure 2: MDS performance vs cluster size",
			Description: "Average per-MDS throughput as file system, cluster size and " +
				"client base scale together, for all five strategies.",
			Run: Fig2,
		},
		{
			ID:    "fig3",
			Title: "Figure 3: cache consumed by prefix inodes",
			Description: "Percentage of MDS cache devoted to prefix directory inodes " +
				"as the system scales, per strategy.",
			Run: Fig3,
		},
		{
			ID:    "fig4",
			Title: "Figure 4: cache hit rate vs cache size",
			Description: "Hit rate as a function of cache size relative to total " +
				"metadata size, per strategy.",
			Run: Fig4,
		},
		{
			ID:    "fig5",
			Title: "Figure 5: throughput under a workload shift",
			Description: "Min/avg/max per-MDS throughput over time as half the " +
				"clients migrate and create files in one subtree: dynamic vs static.",
			Run: Fig5,
		},
		{
			ID:    "fig6",
			Title: "Figure 6: forwarded requests under a workload shift",
			Description: "Fraction of client requests forwarded over time for the " +
				"same shifted workload: dynamic vs static.",
			Run: Fig6,
		},
		{
			ID:    "fig7",
			Title: "Figure 7: flash crowd traffic control",
			Description: "Cluster replies and forwards per second while thousands of " +
				"clients hit one file: traffic control off vs on.",
			Run: Fig7,
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
