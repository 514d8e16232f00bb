package osd_test

import (
	"testing"

	"dynmds/internal/cluster"
	"dynmds/internal/sim"
)

// TestSharedPoolSurvivesOSDFailure downs one device of a running
// cluster's pool: with two replicas per object every object keeps a
// live copy, so reads fail over and nothing is lost.
func TestSharedPoolSurvivesOSDFailure(t *testing.T) {
	cfg := cluster.Default()
	cfg.Strategy = cluster.StratDynamic
	cfg.NumMDS = 3
	cfg.ClientsPerMDS = 10
	cfg.FS.Users = 30
	cfg.MDS.CacheCapacity = 1500
	cfg.Duration = 6 * sim.Second
	cfg.Warmup = 2 * sim.Second
	cfg.OSDs = 8
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Eng.At(2*sim.Second, func() { _ = cl.Pool.SetDown(0, true) })
	res := cl.Run()
	if res.MeasuredOps == 0 {
		t.Fatal("no ops")
	}
	if cl.Pool.Stats.FailoverReads == 0 {
		t.Fatal("no failover reads despite downed OSD")
	}
	if cl.Pool.Stats.UnplacedErrors > 0 {
		t.Fatalf("lost objects: %d unplaced reads", cl.Pool.Stats.UnplacedErrors)
	}
}
