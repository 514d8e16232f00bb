package cluster

import (
	"runtime"
	"testing"

	"dynmds/internal/client"
	"dynmds/internal/fsgen"
	"dynmds/internal/mds"
	"dynmds/internal/sim"
	"dynmds/internal/snap"
	"dynmds/internal/workload"
)

// TestMissPathAllocBudget holds a whole run to an allocation budget on
// the miss path: 20k open-loop clients whose working set overflows the
// MDS caches (hit rate < 0.8), so nearly every fourth request loads a
// directory, inserts its entries and evicts as many. With recycled cache
// entries, pointer-free tag blocks and no ancestor slices a completed op
// costs 0.39 mallocs (it cost 46, then 0.58); the budget of a third more
// catches a per-insert, per-eviction or per-bump allocation creeping
// back into any layer under the run.
func TestMissPathAllocBudget(t *testing.T) {
	cfg := Default()
	cfg.NumMDS = 8
	cfg.FS.Users = 200
	cfg.MDS = mds.DefaultConfig(150)
	cfg.Duration = 20 * sim.Second
	cfg.Warmup = 2 * sim.Second
	cfg.OpenLoop = &client.PopulationConfig{
		Clients: 20_000,
		Rate:    0.12, // ~2.4k ops/s offered
		Tenant:  workload.TenantConfig{TenantSkew: 1, FileSkew: 1},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := c.Run()
	runtime.ReadMemStats(&after)
	if res.Completed < 30_000 {
		t.Fatalf("only %d ops completed", res.Completed)
	}
	if res.HitRate >= 0.8 {
		t.Fatalf("hit rate %.3f: the run is not on the miss path", res.HitRate)
	}
	perOp := float64(after.Mallocs-before.Mallocs) / float64(res.Completed)
	t.Logf("%d ops, hit rate %.3f, %.2f mallocs/op", res.Completed, res.HitRate, perOp)
	if perOp > 0.52 {
		t.Fatalf("%.2f mallocs per completed op, budget 0.52", perOp)
	}
}

// TestCheckpointAllocBudget holds a run's second and later checkpoints
// to one buffer: CheckpointTo sizes the writer from the length of the
// previous checkpoint, so serializing allocates little more than the
// bytes it returns instead of append's doublings from empty (~3x).
func TestCheckpointAllocBudget(t *testing.T) {
	cfg := Default()
	cfg.NumMDS = 4
	cfg.FS.Users = 100
	cfg.Duration = 10 * sim.Second
	cfg.Warmup = sim.Second
	cfg.OpenLoop = &client.PopulationConfig{Clients: 20_000, Rate: 0.05}
	fs := cfg.FS
	fs.Seed = cfg.Seed
	frozen, err := fsgen.GenerateFrozen(fs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Snapshot = frozen
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.StartEndure()
	for k, at := range []sim.Time{3 * sim.Second, 6 * sim.Second} {
		c.RunTo(at)
		if err := c.Quiesce(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := snap.NewWriter()
		c.CheckpointTo(w)
		data := w.Bytes()
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("checkpoint %d: %d bytes, %d allocated", k, len(data), alloc)
		if k > 0 && float64(alloc) > 1.25*float64(len(data)) {
			t.Fatalf("checkpoint %d of %d bytes allocated %d, budget 1.25x its length", k, len(data), alloc)
		}
		c.Resume()
	}
}
