package main

import (
	"fmt"
	"math"
)

// shardSimScale shortens the K=2 comparison: both engines run a quarter
// of fig2-closed, because the sharded run has cost several times the
// serial one on two contended cores.
const shardSimScale = 0.25

// runShardPair is the honest multicore row: fig2-closed on the serial
// engine and on the sharded executor at K=2, back to back in one process
// with GOMAXPROCS=2. None of the gated metrics come from here; every
// gated run is serial.
func runShardPair(seed int64, quick bool, outDir string) (layerValues, error) {
	w := workloadByName("fig2-closed")
	opt := repOptions{Quick: quick, OutDir: outDir, SetupSamples: 1, SimScale: shardSimScale}
	serial, err := runRepetition(w, seed, opt)
	if err != nil {
		return nil, err
	}
	opt.Shards = 2
	k2, err := runRepetition(w, seed, opt)
	if err != nil {
		return nil, err
	}
	for _, r := range []*repResult{serial, k2} {
		if len(r.Failures) > 0 {
			return nil, fmt.Errorf("fig2-closed at %d shards: %v", r.Shards, r.Failures)
		}
	}
	l := layerValues{}
	l.set("sim.shard.k2_wall_speedup", serial.RunWall/k2.RunWall)
	l.set("sim.shard.k2_cpu_ratio", k2.RunCPU/serial.RunCPU)
	l.set("sim.shard.k2_windows", float64(k2.Windows))
	l.set("sim.shard.k2_ops_drift", math.Abs(k2.Sim.OpsPerS-serial.Sim.OpsPerS)/serial.Sim.OpsPerS)
	return l, nil
}
