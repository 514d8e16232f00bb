package main

import (
	"dynmds/internal/client"
	"dynmds/internal/cluster"
	"dynmds/internal/core"
	"dynmds/internal/fsgen"
	"dynmds/internal/lease"
	"dynmds/internal/mds"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// A workloadSpec is one reference scenario. The configuration is spelled
// out here, field by field, and not borrowed from cmd/mdsim, the harness
// or the plan library: those are what later changes refactor, and the
// benchmark must not move when they do.
type workloadSpec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Loop says whether load is closed or open, with its size or rate.
	Loop string
	// Config builds the run for a seed; quick shrinks it for tier-1 tests.
	Config func(seed int64, quick bool) cluster.Config
	// Every is the checkpoint cadence; non-zero selects the endurance
	// cycle (RunTo/Quiesce/CheckpointTo/Resume) in place of Cluster.Run.
	Every func(quick bool) sim.Time
}

// namespaceSeed generates every workload's namespace, whatever --seed is.
// The seed of a run drives the traffic: every client's and tenant's random
// stream, so arrivals, op draws and working sets. A namespace that changed
// with it would change the scenario itself (the size of the hot directory,
// of every working set, of every readdir) and move allocations per op by
// 10-40 % between seeds, more than any bound a metric could carry.
const namespaceSeed = 1

// baseFS is the namespace shape shared by all four workloads; only the
// number of home directories differs.
func baseFS(users int) fsgen.Config {
	return fsgen.Config{
		Seed:              namespaceSeed,
		Users:             users,
		DirsPerUser:       20,
		MaxDepth:          6,
		FilesPerDirMedian: 6,
		FilesPerDirSigma:  1.2,
		FilesPerDirMax:    500,
		SystemDirs:        50,
		SystemFilesPerDir: 20,
		Projects:          10,
		FilesPerProject:   100,
	}
}

// baseConfig is the part of a run every workload shares: partition depth,
// the MDS service-time model at a given cache size, and the balancer and
// traffic control the dynamic strategy uses (ignored by static subtree).
func baseConfig(seed int64, numMDS, users, cacheRecords int) cluster.Config {
	bal := core.DefaultBalancerConfig()
	return cluster.Config{
		Seed:           seed,
		NumMDS:         numMDS,
		Strategy:       cluster.StratDynamic,
		PartitionDepth: 2,
		FS:             baseFS(users),
		MDS:            mds.DefaultConfig(cacheRecords),
		Client:         client.Config{ThinkMean: 5 * sim.Millisecond, KnownCap: 2048},
		Workload:       cluster.WorkloadConfig{Kind: cluster.WorkGeneral, General: workload.DefaultGeneralConfig()},
		Balancer:       &bal,
		Traffic:        core.DefaultTrafficControl(),
		SeriesBucket:   sim.Second,
	}
}

func pick(quick bool, q, full float64) float64 {
	if quick {
		return q
	}
	return full
}

var workloads = []workloadSpec{
	{
		Name: "fig2-closed",
		Loop: "closed loop, 320 clients (8 MDS x 40), 5 ms mean think time",
		Why: "closed loop, 320 clients: the paper's Figure 2 point and the only path through client.Client " +
			"and the general generator; every pending request sits in the event heap, caches fit (hit ~0.95)",
		Config: func(seed int64, quick bool) cluster.Config {
			cfg := baseConfig(seed, 8, 200, 2500)
			cfg.ClientsPerMDS = 40
			cfg.Duration = sim.FromSeconds(pick(quick, 2, fig2Seconds))
			cfg.Warmup = cfg.Duration / 10
			return cfg
		},
	},
	{
		Name: "open-wide",
		Loop: "open loop, 2,000,000 clients x 0.0012 ops/s (Poisson, ~2.4k ops/s offered)",
		Why: "open loop, 2M flyweight clients at ~2.4k ops/s: working set far beyond the MDS caches (hit ~0.77), population far " +
			"beyond the CPU caches; set-up, bytes/client, the wheel and the miss path dominate",
		Config: func(seed int64, quick bool) cluster.Config {
			cfg := baseConfig(seed, 8, 200, 2500)
			clients := int(pick(quick, 20_000, openWideClients))
			cfg.Duration = sim.FromSeconds(pick(quick, 2, openWideSeconds))
			cfg.Warmup = cfg.Duration / 10
			cfg.OpenLoop = &client.PopulationConfig{
				Clients: clients,
				Rate:    openWideOffered / float64(clients),
				Tenant:  workload.TenantConfig{TenantSkew: 1, FileSkew: 1},
			}
			return cfg
		},
	},
	{
		Name: "hotspot-both",
		Loop: "open loop, 100,000 clients x 0.05 ops/s (~5k ops/s, doubled during the read crowd)",
		Why: "open loop, 100k clients at ~5-10k ops/s, static subtree: a MIDAS-style read crowd then churn on one directory; " +
			"the only run of leases, recalls and replica fan-out, with the miss path idle (hit ~0.99)",
		Config: func(seed int64, quick bool) cluster.Config {
			cfg := baseConfig(seed, 8, 40, 2000)
			cfg.Strategy = cluster.StratStatic
			d := pick(quick, 2, hotspotSeconds)
			cfg.Duration = sim.FromSeconds(d)
			cfg.Warmup = cfg.Duration / 10
			cfg.OpenLoop = &client.PopulationConfig{
				Clients: int(pick(quick, 20_000, 100_000)),
				Rate:    pick(quick, 0.25, 0.05),
				Tenant:  workload.TenantConfig{TenantSkew: 1, FileSkew: 1},
			}
			cfg.Lease = lease.Config{Enabled: true, Fanout: true, Duration: 4 * sim.Second}
			const hot = "/home/u0000"
			cfg.Acts = []cluster.ActConfig{
				{
					Name: "crowd", From: sim.FromSeconds(0.2 * d), To: sim.FromSeconds(0.6 * d),
					RateMul: 2, MixStat: 90, MixReaddir: 10,
					FileSkew: -1, Hotspot: hot, HotFrac: 0.8,
				},
				{
					Name: "churn", From: sim.FromSeconds(0.6 * d), To: cfg.Duration,
					MixStat: 70, MixReaddir: 10, MixChmod: 10, MixCreate: 10,
					FileSkew: -1, Hotspot: hot, HotFrac: 0.5,
				},
			}
			return cfg
		},
	},
	{
		Name: "aging-churn",
		Loop: "open loop, write-heavy, 20,000 clients x 0.015 ops/s (~300 ops/s)",
		Why: "open loop, 20k clients at ~300 ops/s, 27% writes: namespace, cache and storage are mutated (tombstones, commits); " +
			"the only path through endure, snap and simfsck, whose restore must match bit for bit",
		Config: func(seed int64, quick bool) cluster.Config {
			cfg := baseConfig(seed, 4, 60, 2000)
			cfg.Duration = sim.FromSeconds(pick(quick, 10, agingSeconds))
			cfg.Warmup = cfg.Duration / 10
			cfg.OpenLoop = &client.PopulationConfig{
				Clients: 20_000,
				Rate:    0.015,
				// The endurance mix, spelled out so endure.Options.Normalize
				// has nothing left to default.
				MixStat: 55, MixReaddir: 10, MixChmod: 5, MixCreate: 12, MixRename: 3, MixUnlink: 15,
			}
			return cfg
		},
		Every: func(quick bool) sim.Time { return sim.FromSeconds(pick(quick, 2.5, agingSeconds/5)) },
	},
}

// Simulated durations at full scale. The issue sized the four workloads
// at 80/90/160/1500 simulated seconds (~5 CPU-s each); the driver's time
// cap for 92 runs leaves room for about half of that per repetition, so
// all four are scaled down together, and open-wide halves its population
// to halve its set-up. Its offered rate is 2.4k ops/s, not the 4k sized
// in the issue: at 4k the disks of the busiest nodes fall behind, latency
// grows with the run's length and thousands of requests are still queued
// two simulated seconds after the clients stop, so nothing the run
// reports would be a property of the system at a fixed load.
const (
	fig2Seconds     = 40
	openWideSeconds = 80
	openWideClients = 2_000_000
	openWideOffered = 2400 // ops/s over the whole population
	hotspotSeconds  = 80
	agingSeconds    = 900
)

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
