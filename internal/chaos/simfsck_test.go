package chaos

import (
	"strings"
	"testing"

	"dynmds/internal/client"
	"dynmds/internal/cluster"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// tinyConfig is a fast small-scale run for checker tests.
func tinyConfig(strategy, faults string) cluster.Config {
	cfg := cluster.Default()
	cfg.Strategy = strategy
	cfg.NumMDS = 3
	cfg.ClientsPerMDS = 10
	cfg.FS.Users = 30
	cfg.MDS.CacheCapacity = 500
	cfg.MDS.Storage.LogCapacity = 500
	cfg.Duration = 4 * sim.Second
	cfg.Warmup = 1 * sim.Second
	cfg.Faults = faults
	return cfg
}

func runDrained(t *testing.T, cfg cluster.Config) (*cluster.Cluster, Baseline) {
	t.Helper()
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Capture(cl)
	cl.Run()
	cl.Drain()
	return cl, base
}

// TestFsckCleanRuns: fault-free and lightly faulted runs across all
// strategies pass the whole catalogue.
func TestFsckCleanRuns(t *testing.T) {
	for _, s := range cluster.Strategies {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			cl, base := runDrained(t, tinyConfig(s, ""))
			if err := Fsck(cl, base); err != nil {
				t.Errorf("fault-free run: %v", err)
			}
		})
	}
}

// TestFsckFaultyRun: a crash with failover and recovery, plus drops,
// still satisfies every invariant after the drain.
func TestFsckFaultyRun(t *testing.T) {
	for _, s := range []string{cluster.StratDynamic, cluster.StratDirHash} {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			cl, base := runDrained(t, tinyConfig(s, "crash@1500ms-2500ms:mds1,drop@0.02:all"))
			if err := Fsck(cl, base); err != nil {
				t.Errorf("faulty run: %v", err)
			}
		})
	}
}

// TestFsckCrashWithoutRecovery: a node that dies for good must end the
// run with no delegated roots (dynamic strategy failover).
func TestFsckCrashWithoutRecovery(t *testing.T) {
	cl, base := runDrained(t, tinyConfig(cluster.StratDynamic, "crash@1500ms:mds2"))
	if err := Fsck(cl, base); err != nil {
		t.Errorf("unrecovered crash: %v", err)
	}
}

// TestFsckOpenLoopFaultsWithLeases composes the three planes that must
// coexist: the open-loop population (its retries armed by the fault
// schedule), a lossy faulted fabric, and the
// lease plane with fan-out. Drops force retries; recalls ride the same
// lossy fabric; the checker must still find conservation intact and no
// lease dangling.
func TestFsckOpenLoopFaultsWithLeases(t *testing.T) {
	cfg := tinyConfig(cluster.StratDynamic, "drop@0.02:all")
	cfg.FS.Users = 40
	cfg.OpenLoop = &client.PopulationConfig{
		Clients: 600,
		Rate:    3,
		Tenant:  workload.TenantConfig{Tenants: 8, TenantSkew: 1, FileSkew: 1, WorkingSet: 32},
	}
	cfg.Lease.Enabled = true
	cfg.Lease.Fanout = true
	cfg.Lease.Duration = sim.Second
	cfg.Acts = []cluster.ActConfig{
		{Name: "crowd", From: sim.Second, To: 3 * sim.Second, RateMul: 2,
			MixStat: 90, MixReaddir: 10, FileSkew: -1,
			Hotspot: "/home/u0000", HotFrac: 0.7},
		{Name: "churn", From: 3 * sim.Second, To: 4 * sim.Second,
			MixStat: 50, MixChmod: 30, MixCreate: 20, FileSkew: -1},
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Capture(cl)
	res := cl.Run()
	cl.Drain()
	if res.LeaseGrants == 0 || res.LeaseHits == 0 || res.ReplicaFanouts == 0 {
		t.Fatalf("lease plane idle: %d grants, %d hits, %d fan-outs", res.LeaseGrants, res.LeaseHits, res.ReplicaFanouts)
	}
	if res.Retries == 0 {
		t.Fatal("2% drops produced no population retries")
	}
	if err := Fsck(cl, base); err != nil {
		t.Errorf("open-loop + faults + leases: %v", err)
	}
}

// TestFsckDetectsPlantedViolations corrupts a clean run's state in
// three independent ways and checks each is caught and reported.
func TestFsckDetectsPlantedViolations(t *testing.T) {
	t.Run("replica-bits-out-of-range", func(t *testing.T) {
		cl, base := runDrained(t, tinyConfig(cluster.StratDynamic, ""))
		partition.TagsOf(cl.Tree().Root).ReplicaSet |= 1 << 40
		err := Fsck(cl, base)
		if err == nil || !strings.Contains(err.Error(), "replica set") {
			t.Errorf("planted out-of-range replica bit not caught: %v", err)
		}
	})
	t.Run("unflushed-write-on-live-node", func(t *testing.T) {
		cl, base := runDrained(t, tinyConfig(cluster.StratDynamic, ""))
		cl.Writers()[cl.Tree().Root.ID] |= 1
		err := Fsck(cl, base)
		if err == nil || !strings.Contains(err.Error(), "unflushed write") {
			t.Errorf("planted stale unflushed-writer bit not caught: %v", err)
		}
	})
	t.Run("dead-node-owning-roots", func(t *testing.T) {
		cl, base := runDrained(t, tinyConfig(cluster.StratDynamic, "crash@1500ms:mds2"))
		// Hand a subtree back to the dead node behind failover's back.
		if err := cl.Table.Delegate(cl.Tree().Root, 2); err != nil {
			t.Fatal(err)
		}
		err := Fsck(cl, base)
		if err == nil || !strings.Contains(err.Error(), "failover") {
			t.Errorf("planted dead-owner delegation not caught: %v", err)
		}
	})
}

// TestFsckDeterministic: the checker itself must not perturb state in a
// way that changes a second invocation's verdict.
func TestFsckDeterministic(t *testing.T) {
	cl, base := runDrained(t, tinyConfig(cluster.StratDynamic, "crash@1500ms-2500ms:mds1"))
	if err := Fsck(cl, base); err != nil {
		t.Fatalf("first pass: %v", err)
	}
	if err := Fsck(cl, base); err != nil {
		t.Errorf("second pass differs: %v", err)
	}
}

// TestFsckOverlappingWindows: rules whose windows overlap or abut — two
// lags on intersecting windows, a slow window starting the instant a
// crash window ends, a partition inside the outage — compose without
// breaking any invariant. (Windows are half-open, so "adjacent" means
// zero overlap.)
func TestFsckOverlappingWindows(t *testing.T) {
	sched := "crash@1s-2s:mds1," +
		"lag@1s-2s:mds1+10ms,lag@1500ms-2500ms:all+5ms," +
		"slow@2s-3s:mds1x3,partition@1800ms-2200ms:{0|1.2}"
	for _, s := range []string{cluster.StratDynamic, cluster.StratFileHash} {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			cl, base := runDrained(t, tinyConfig(s, sched))
			if err := Fsck(cl, base); err != nil {
				t.Errorf("overlapping windows: %v", err)
			}
		})
	}
}

// TestFsckPartitionNamesCrashedNode: a partition rule that names a node
// already dead (crashed earlier, never recovered) is a no-op for that
// node's traffic but must not confuse the fault plane or the checker.
func TestFsckPartitionNamesCrashedNode(t *testing.T) {
	cl, base := runDrained(t, tinyConfig(cluster.StratDynamic,
		"crash@1200ms:mds2,partition@1500ms-2500ms:{0.1|2}"))
	if err := Fsck(cl, base); err != nil {
		t.Errorf("partition over a dead node: %v", err)
	}
	if len(cl.Failures) != 1 || cl.Failures[0].Node != 2 {
		t.Fatalf("crash not injected: %+v", cl.Failures)
	}
}

// TestFsckRecoverWithoutCrash: a stray recovery of a node that never
// failed — a shape the shrinker produces when it drops a crash but
// keeps its paired recovery — is harmless (the recovery re-warms the
// cache of a live node).
func TestFsckRecoverWithoutCrash(t *testing.T) {
	cl, base := runDrained(t, tinyConfig(cluster.StratDynamic, "recover@2s:mds1"))
	if err := Fsck(cl, base); err != nil {
		t.Errorf("stray recovery: %v", err)
	}
	if len(cl.Recoveries) != 1 {
		t.Fatalf("recovery not injected: %+v", cl.Recoveries)
	}
}

// TestJournalCheckZeroAlloc: checking every node's journal after a
// faulted run allocates nothing — each log is checked against its own
// index, with no working set or map of seen IDs built.
func TestJournalCheckZeroAlloc(t *testing.T) {
	cl, _ := runDrained(t, tinyConfig(cluster.StratDynamic, "crash@1500ms-2500ms:mds1"))
	fail := func(format string, args ...any) { t.Fatalf("simfsck: "+format, args...) }
	if allocs := testing.AllocsPerRun(20, func() { checkJournal(cl, fail) }); allocs != 0 {
		t.Fatalf("checkJournal allocated %.1f times per call, want 0", allocs)
	}
}
