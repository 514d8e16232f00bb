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
// entries, tags held in the inode and no ancestor slices a completed op
// costs 0.21 mallocs (it cost 46, then 0.58, then 0.34 with a tag block
// per touched inode); the budget of a third more catches a per-insert,
// per-eviction or per-bump allocation creeping back into any layer
// under the run.
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
	if perOp > 0.28 {
		t.Fatalf("%.2f mallocs per completed op, budget 0.28", perOp)
	}
}

// TestCreateChurnAllocBudget holds create-heavy runs to an allocation
// budget once warm: the aging mix in the open loop (12 % creates, 3 %
// renames, 15 % unlinks) and the closed loop's general generator. A
// name costs no malloc of its own: the issuer writes it into a block of
// names and the tree copies it into its inode's page, which is one
// malloc per 64 creates. With a string per name a completed op here
// cost 0.19 mallocs open and 0.07 closed; the budget of 0.05 fails
// either.
func TestCreateChurnAllocBudget(t *testing.T) {
	aging := Default()
	aging.FS.Users = 60
	aging.Duration = 60 * sim.Second
	aging.Warmup = 20 * sim.Second
	aging.OpenLoop = &client.PopulationConfig{
		Clients: 20_000, Rate: 0.05,
		MixStat: 55, MixReaddir: 10, MixChmod: 5, MixCreate: 12, MixRename: 3, MixUnlink: 15,
	}
	closed := Default()
	closed.NumMDS = 8
	closed.FS.Users = 200
	closed.Duration = 8 * sim.Second
	closed.Warmup = 2 * sim.Second
	for _, run := range []struct {
		name string
		cfg  Config
	}{{"open loop, aging mix", aging}, {"closed loop, general", closed}} {
		c, err := New(run.cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.StartEndure()
		c.RunTo(run.cfg.Warmup)
		var before, after runtime.MemStats
		done := c.Requests().Completed
		runtime.ReadMemStats(&before)
		c.RunTo(run.cfg.Duration)
		runtime.ReadMemStats(&after)
		ops := c.Requests().Completed - done
		if ops < 5_000 {
			t.Fatalf("%s: only %d ops completed once warm", run.name, ops)
		}
		perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
		t.Logf("%s: %d ops once warm, %.3f mallocs/op", run.name, ops, perOp)
		if perOp > 0.05 {
			t.Errorf("%s: %.3f mallocs per completed op once warm, budget 0.05", run.name, perOp)
		}
	}
}

// TestCheckpointAllocBudget holds a run's checkpoints to one buffer:
// CheckpointTo sizes the writer from the length of the previous
// checkpoint, or for the first from a counting pass, and the walks
// count and then write what they carry instead of gathering it, so
// serializing allocates little more than the bytes it returns (~1.05x;
// append's regrowth from empty is ~3x).
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
		if float64(alloc) > 1.10*float64(len(data)) {
			t.Fatalf("checkpoint %d of %d bytes allocated %d, budget 1.10x its length", k, len(data), alloc)
		}
		c.Resume()
	}
}
