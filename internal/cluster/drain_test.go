package cluster_test

import (
	"testing"

	"dynmds/internal/chaos"
	"dynmds/internal/cluster"
	"dynmds/internal/plan"
)

// TestDrainLeavesNoNodeWork runs one open-loop cell of the chaos budget
// (seed 1 at rate=20) whose crashes, drops, lag and partition leave a
// node with record fetches queued long past the drain window. Drain
// must wait for them: after it no node holds in-flight work and simfsck
// finds nothing left. A drain that waited only on the fabric and the
// clients returned with mds 1 still holding 78 pending record fetches,
// which finished 1.2 s later.
func TestDrainLeavesNoNodeWork(t *testing.T) {
	const faults = "crash@887ms:mds2,crash@915ms:mds1,recover@4075ms:mds1," +
		"drop@0.06060326308942264:mds3,drop@0.07854024946186099:link3-0," +
		"lag@502ms-1909ms:client+2ms,slow@726ms-1692ms:mds0x1.9557501154207833," +
		"partition@3275ms-3802ms:{0|3}"
	var set []plan.Setting
	for _, kv := range []string{"strategy=StaticSubtree", "users=30", "mds=4", "cache=500", "clients=40",
		"rate=20", "warmup=1s", "duration=5s", "faults=" + faults} {
		s, err := plan.ParseSetting(kv)
		if err != nil {
			t.Fatal(err)
		}
		set = append(set, s)
	}
	cells, err := plan.Default().Compile(plan.Options{Seed: 1, Set: set})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cells[0].Cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := chaos.Capture(cl)
	cl.Run()
	cl.Drain()
	for _, n := range cl.Nodes {
		if err := n.InFlight(); err != nil {
			t.Errorf("after the drain: %v", err)
		}
	}
	if err := cl.InFlight(); err != nil {
		t.Errorf("after the drain: %v", err)
	}
	if err := chaos.Fsck(cl, base); err != nil {
		t.Error(err)
	}
}
