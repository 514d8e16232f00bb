package harness

import (
	"reflect"
	"sync"
	"testing"

	"dynmds/internal/cluster"
	"dynmds/internal/sim"
)

// resetSnapshotCache drops all cached snapshots and zeroes the
// generation count, now and again when the test ends.
func resetSnapshotCache(t *testing.T) {
	t.Helper()
	reset := func() {
		snapCache.mu.Lock()
		snapCache.m = nil
		snapCache.mu.Unlock()
		snapCache.generated.Store(0)
	}
	reset()
	t.Cleanup(reset)
}

// privateRun is a run outside the cache: cluster.New generates the
// namespace for this run alone.
func privateRun(t *testing.T, cfg cluster.Config) *cluster.Result {
	t.Helper()
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl.Run()
}

// TestSharedSnapshotCacheReuse verifies the sweep generates each
// distinct fs exactly once: five strategies over the same config is one
// generation, and a second sweep is pure reuse.
func TestSharedSnapshotCacheReuse(t *testing.T) {
	resetSnapshotCache(t)
	var specs []RunSpec
	for _, s := range cluster.Strategies {
		specs = append(specs, RunSpec{Label: s, Cfg: tinyCfg(s)})
	}
	for sweep := 1; sweep <= 2; sweep++ {
		if _, err := Sweep(specs); err != nil {
			t.Fatal(err)
		}
		if gen := snapCache.generated.Load(); gen != 1 {
			t.Fatalf("after sweep %d: generated=%d, want 1", sweep, gen)
		}
	}
}

// TestConcurrentOverlayRuns mutates one shared frozen base from many
// simulation runs at once — under -race this proves overlay runs never
// write to shared state, and the results must still match a serial run
// on a namespace of its own exactly.
func TestConcurrentOverlayRuns(t *testing.T) {
	resetSnapshotCache(t)
	cfg := tinyCfg(cluster.StratDynamic)
	cfg.Duration = 3 * sim.Second
	want := privateRun(t, cfg)

	// All goroutines race on a cold cache: one generates, the rest
	// block on the entry's once and then share the frozen base.
	const runs = 4
	results := make([]*cluster.Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunOne(RunSpec{Label: "conc", Cfg: cfg})
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(stripWall(want), stripWall(results[i])) {
			t.Fatalf("concurrent run %d diverged:\nprivate: %+v\nshared: %+v", i, want, results[i])
		}
	}
	if gen := snapCache.generated.Load(); gen != 1 {
		t.Fatalf("generated=%d, want 1", gen)
	}
}
