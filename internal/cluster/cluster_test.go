package cluster

import (
	"testing"

	"dynmds/internal/sim"
)

// smallConfig keeps unit-test runs fast.
func smallConfig(strategy string) Config {
	cfg := Default()
	cfg.Strategy = strategy
	cfg.NumMDS = 3
	cfg.ClientsPerMDS = 10
	cfg.FS.Users = 30
	cfg.MDS.CacheCapacity = 1500
	cfg.Duration = 6 * sim.Second
	cfg.Warmup = 2 * sim.Second
	return cfg
}

func TestRunAllStrategies(t *testing.T) {
	for _, s := range Strategies {
		s := s
		t.Run(s, func(t *testing.T) {
			cl, err := New(smallConfig(s))
			if err != nil {
				t.Fatal(err)
			}
			res := cl.Run()
			if res.MeasuredOps == 0 {
				t.Fatal("no ops measured")
			}
			if res.AvgThroughput <= 0 {
				t.Fatal("zero throughput")
			}
			if res.HitRate <= 0 || res.HitRate > 1 {
				t.Fatalf("hit rate = %v", res.HitRate)
			}
			if res.PrefixFrac < 0 || res.PrefixFrac > 1 {
				t.Fatalf("prefix fraction = %v", res.PrefixFrac)
			}
			// Every node served something.
			for i, ops := range res.PerMDSOps {
				if ops <= 0 {
					t.Fatalf("mds %d served nothing", i)
				}
			}
			if err := cl.Tree().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for _, n := range cl.Nodes {
				if err := n.Cache().CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			if res.String() == "" {
				t.Fatal("empty result string")
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := New(smallConfig(StratDynamic))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(smallConfig(StratDynamic))
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Run(), b.Run()
	if ra.MeasuredOps != rb.MeasuredOps || ra.HitRate != rb.HitRate ||
		ra.ForwardFrac != rb.ForwardFrac || ra.Migrations != rb.Migrations {
		t.Fatalf("nondeterministic runs:\n%v\n%v", ra, rb)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfgA := smallConfig(StratDynamic)
	cfgB := smallConfig(StratDynamic)
	cfgB.Seed = 99
	a, _ := New(cfgA)
	b, _ := New(cfgB)
	ra, rb := a.Run(), b.Run()
	if ra.MeasuredOps == rb.MeasuredOps {
		t.Fatal("different seeds produced identical op counts (suspicious)")
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	cfg := smallConfig("Nonsense")
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestSubtreeClientsLearnPartition(t *testing.T) {
	cl, err := New(smallConfig(StratStatic))
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Run()
	// After warmup, clients should have learned their region's location.
	// One that had learned nothing would pick among the 3 nodes at random
	// and see about 2/3 of its requests forwarded.
	if res.ForwardFrac > 0.3 {
		t.Fatalf("forward fraction = %v; clients not learning", res.ForwardFrac)
	}
}

func TestHashClientsNeverForward(t *testing.T) {
	cl, err := New(smallConfig(StratFileHash))
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Run()
	// Hash strategies are client-computable: requests go straight to
	// the authority (renames can still relocate items mid-flight, so
	// allow a tiny residue).
	if res.ForwardFrac > 0.02 {
		t.Fatalf("forward fraction = %v for client-computable strategy", res.ForwardFrac)
	}
}

func TestDynamicBalancerMigrates(t *testing.T) {
	cfg := smallConfig(StratDynamic)
	cfg.Workload.Kind = WorkShift
	cfg.Workload.ShiftTime = 2 * sim.Second
	cfg.Duration = 10 * sim.Second
	cfg.Warmup = 1 * sim.Second
	bal := *cfg.Balancer
	bal.Interval = sim.Second
	cfg.Balancer = &bal
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Run()
	if res.Migrations == 0 {
		t.Fatal("no migrations under a shifted workload")
	}
}

func TestScientificWorkloadRuns(t *testing.T) {
	cfg := smallConfig(StratDynamic)
	cfg.Workload.Kind = WorkScientific
	cfg.Duration = 9 * sim.Second
	cfg.Warmup = 2 * sim.Second
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Run()
	if res.MeasuredOps == 0 {
		t.Fatal("no ops")
	}
	// The N-to-1 write bursts must exercise the distributed-write
	// mechanism once traffic control replicates the hot files.
	if res.WritesAbsorbed == 0 {
		t.Fatal("no writes absorbed at replicas under scientific workload")
	}
	// Sizes really grew on the shared files.
	grew := false
	for _, p := range cl.Snap.Projects {
		for _, c := range p.Children() {
			if cl.Tree().Size(c) > 0 {
				grew = true
			}
		}
	}
	if !grew {
		t.Fatal("no shared file grew despite write bursts")
	}
}

func TestLatencyQuantilesPopulated(t *testing.T) {
	cl, err := New(smallConfig(StratStatic))
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Run()
	if res.LatencyP50 <= 0 || res.LatencyP99 < res.LatencyP50 {
		t.Fatalf("latency quantiles: p50=%v p99=%v", res.LatencyP50, res.LatencyP99)
	}
}
