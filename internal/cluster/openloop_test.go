package cluster

import (
	"fmt"
	"math"
	"testing"

	"dynmds/internal/client"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

func openLoopConfig(strategy string) Config {
	cfg := Default()
	cfg.Strategy = strategy
	cfg.NumMDS = 4
	cfg.ClientsPerMDS = 10 // overridden by OpenLoop.Clients
	cfg.FS.Users = 40
	cfg.Duration = 6 * sim.Second
	cfg.Warmup = 2 * sim.Second
	cfg.OpenLoop = &client.PopulationConfig{
		Clients: 2000,
		Rate:    20,
		Tenant:  workload.TenantConfig{Tenants: 16, TenantSkew: 1, FileSkew: 1, WorkingSet: 32},
	}
	return cfg
}

func openLoopDigest(r *Result) string {
	return fmt.Sprintf("iss=%d comp=%d ops=%d p50=%x p99=%x p999=%x mean=%x fwd=%x net=%+v",
		r.Issued, r.Completed, r.MeasuredOps,
		math.Float64bits(r.LatencyP50), math.Float64bits(r.LatencyP99),
		math.Float64bits(r.LatencyP999), math.Float64bits(r.MeanLatency),
		math.Float64bits(r.ForwardFrac), r.Net)
}

func TestOpenLoopRuns(t *testing.T) {
	for _, s := range []string{StratDynamic, StratFileHash} {
		s := s
		t.Run(s, func(t *testing.T) {
			cl, err := New(openLoopConfig(s))
			if err != nil {
				t.Fatal(err)
			}
			res := cl.Run()
			if !res.OpenLoop {
				t.Fatal("result not marked open loop")
			}
			if res.Clients != 2000 {
				t.Fatalf("clients = %d", res.Clients)
			}
			// 2000 clients × 20 ops/s × 6 s = 240k expected arrivals.
			if res.Issued < 200000 || res.Issued > 280000 {
				t.Fatalf("issued = %d, want ≈ 240k", res.Issued)
			}
			if res.Completed == 0 || res.Completed > res.Issued {
				t.Fatalf("completed = %d of %d", res.Completed, res.Issued)
			}
			if res.MeasuredOps == 0 {
				t.Fatal("no ops measured")
			}
			if !(res.LatencyP50 > 0 && res.LatencyP50 <= res.LatencyP99 && res.LatencyP99 <= res.LatencyP999) {
				t.Fatalf("quantiles not ordered: p50=%v p99=%v p999=%v",
					res.LatencyP50, res.LatencyP99, res.LatencyP999)
			}
			if res.MeanLatency <= 0 {
				t.Fatal("mean latency not recorded")
			}
			// The flyweight memory gate: structural bytes per client,
			// measured 42.8 plus ~15 %. A population this small fits its
			// whole hint table in the first chunk (36 B/client with the
			// RNG, wheel link and region index) and the rest is the
			// fixed wheel and tenant tables spread over 2000 clients;
			// TestLeasePlaneFootprint gates the per-client slope.
			if bpc := float64(res.PopFootprint) / float64(res.Clients); bpc > 49 {
				t.Fatalf("footprint = %.1f bytes/client, gate 49", bpc)
			}
			if err := cl.Tree().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenLoopDeterministic pins bit-reproducibility of the open-loop
// plane for a fixed shard count, serial and K=4.
func TestOpenLoopDeterministic(t *testing.T) {
	for _, shards := range []int{0, 4} {
		shards := shards
		t.Run(fmt.Sprintf("K%d", shards), func(t *testing.T) {
			cfg := openLoopConfig(StratDynamic)
			cfg.OpenLoop.DiurnalAmp = 0.4
			cfg.OpenLoop.BurstProb = 0.1
			cfg.Shards = shards
			run := func() string {
				cl, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return openLoopDigest(cl.Run())
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("open-loop run not reproducible:\n%s\n%s", a, b)
			}
		})
	}
}

func TestOpenLoopValidation(t *testing.T) {
	// Open loop + faults composes (the boxed retry cache); leases
	// without the open loop does not — the slab lives in the population.
	bad := openLoopConfig(StratDynamic)
	bad.OpenLoop = nil
	bad.Lease.Enabled = true
	if _, err := New(bad); err == nil {
		t.Fatal("leases without open loop accepted")
	}
	bad = openLoopConfig(StratDynamic)
	bad.Lease.Ways = -1
	bad.Lease.Enabled = true
	if _, err := New(bad); err == nil {
		t.Fatal("negative lease ways accepted")
	}
	bad = openLoopConfig(StratDynamic)
	bad.Workload.Kind = WorkShift
	if _, err := New(bad); err == nil {
		t.Fatal("open loop + shift workload accepted")
	}
}
