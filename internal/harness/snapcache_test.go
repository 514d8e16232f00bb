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

// legacyRun is the per-run-generation path the shared-snapshot path
// must match: cluster.New generates and privately owns the namespace.
func legacyRun(t *testing.T, cfg cluster.Config) *cluster.Result {
	t.Helper()
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl.Run()
}

// TestSharedSnapshotEquivalence is the acceptance gate for the
// frozen-base refactor: every strategy, run through the legacy
// per-run-generation path and through the shared-snapshot path, must
// produce bit-identical results — hit rate, op counts, migrations, all
// of it. The workloads mutate the namespace (create-heavy general mix),
// so this exercises the copy-on-write overlay, not just reads.
func TestSharedSnapshotEquivalence(t *testing.T) {
	resetSnapshotCache(t)
	for _, s := range cluster.Strategies {
		cfg := tinyCfg(s)
		legacy := legacyRun(t, cfg)
		shared, err := RunOne(RunSpec{Label: "shared/" + s, Cfg: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if legacy.SharedSnapshot || !shared.SharedSnapshot {
			t.Fatalf("%s: SharedSnapshot flags wrong: legacy=%v shared=%v",
				s, legacy.SharedSnapshot, shared.SharedSnapshot)
		}
		legacy.SharedSnapshot = shared.SharedSnapshot
		if !reflect.DeepEqual(stripWall(legacy), stripWall(shared)) {
			t.Fatalf("%s diverged:\nlegacy: %+v\nshared: %+v", s, legacy, shared)
		}
	}
}

// TestSharedSnapshotCacheReuse verifies the sweep generates each
// distinct fs exactly once: five strategies over the same config is one
// generation with every run on the shared base, and a second sweep is
// pure reuse.
func TestSharedSnapshotCacheReuse(t *testing.T) {
	resetSnapshotCache(t)
	var specs []RunSpec
	for _, s := range cluster.Strategies {
		specs = append(specs, RunSpec{Label: s, Cfg: tinyCfg(s)})
	}
	for sweep := 1; sweep <= 2; sweep++ {
		results, err := Sweep(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if !r.SharedSnapshot {
				t.Fatalf("sweep %d run %d did not use the shared base", sweep, i)
			}
		}
		if gen := snapCache.generated.Load(); gen != 1 {
			t.Fatalf("after sweep %d: generated=%d, want 1", sweep, gen)
		}
	}
}

// TestConcurrentOverlayRuns mutates one shared frozen base from many
// simulation runs at once — under -race this proves overlay runs never
// write to shared state, and the results must still match a serial
// legacy run exactly.
func TestConcurrentOverlayRuns(t *testing.T) {
	resetSnapshotCache(t)
	cfg := tinyCfg(cluster.StratDynamic)
	cfg.Duration = 3 * sim.Second
	want := legacyRun(t, cfg)

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
		got := stripWall(results[i])
		if !got.SharedSnapshot {
			t.Fatalf("concurrent run %d did not use the shared base", i)
		}
		got.SharedSnapshot = false
		if !reflect.DeepEqual(stripWall(want), got) {
			t.Fatalf("concurrent run %d diverged:\nlegacy: %+v\nshared: %+v", i, want, results[i])
		}
	}
	if gen := snapCache.generated.Load(); gen != 1 {
		t.Fatalf("generated=%d, want 1", gen)
	}
}
