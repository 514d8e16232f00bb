package cluster

import (
	"runtime"
	"testing"

	"dynmds/internal/client"
	"dynmds/internal/mds"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// TestMissPathAllocBudget holds a whole run to an allocation budget on
// the miss path: 20k open-loop clients whose working set overflows the
// MDS caches (hit rate < 0.8), so nearly every fourth request loads a
// directory, inserts its entries and evicts as many. With recycled cache
// entries and no ancestor slices a completed op costs 0.6 mallocs (it
// cost 46 before); the budget of 2 catches a per-insert or per-eviction
// allocation creeping back into any layer under the run.
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
	if perOp > 2 {
		t.Fatalf("%.2f mallocs per completed op, budget 2", perOp)
	}
}
