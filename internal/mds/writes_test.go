package mds

import (
	"testing"

	"dynmds/internal/core"
	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/net"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
)

// replicateFile makes f hot enough that traffic control replicates it
// cluster-wide, then drains the engine.
func replicateFile(t *testing.T, eng *sim.Engine, cl *testCluster, auth int, f *namespace.Inode) {
	t.Helper()
	for i := 0; i < 10; i++ {
		cl.nodes[auth].Receive(&msg.Request{ID: uint64(i), Op: msg.Open, Target: f})
	}
	eng.Run()
	if !partition.TagsOf(f).Has(namespace.ReplicatedAll) {
		t.Fatal("file did not replicate")
	}
}

func TestWriteAbsorbedAtReplica(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, strat := buildCluster(t, eng, 3, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(3, tr, 2)
	}, true)
	f := lookup(t, tree, "/home/u1/f0")
	auth := strat.Authority(f)
	replicateFile(t, eng, cl, auth, f)

	other := (auth + 1) % 3
	fwdBefore := cl.nodes[other].Stats.Forwarded
	cl.nodes[other].Receive(&msg.Request{ID: 100, Op: msg.Write, Target: f, Size: 4096})
	eng.Run()
	if cl.nodes[other].Stats.WritesAbsorbed != 1 {
		t.Fatalf("writes absorbed = %d", cl.nodes[other].Stats.WritesAbsorbed)
	}
	if cl.nodes[other].Stats.Forwarded != fwdBefore {
		t.Fatal("replica write was forwarded")
	}
	// Not yet visible at the authority...
	if tree.Size(f) == 4096 {
		t.Fatal("size applied before flush")
	}
	if !partition.TagsOf(f).HasReplica(other) {
		t.Fatal("replica bit missing")
	}
	if cl.writers[f.ID] == 0 {
		t.Fatal("unflushed-writer mask not set")
	}
	// ...until the replica flushes.
	flushes := cl.fab.Class(net.WriteFlush).Sent
	cl.nodes[other].flushWrites(eng.Now())
	eng.Run()
	if tree.Size(f) != 4096 {
		t.Fatalf("size after flush = %d", tree.Size(f))
	}
	if cl.writers[f.ID] != 0 {
		t.Fatal("mask not cleared after flush")
	}
	if n := cl.fab.Class(net.WriteFlush).Sent - flushes; n != 1 {
		t.Fatalf("flushes = %d", n)
	}
}

func TestWriteMonotoneMaxWins(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, strat := buildCluster(t, eng, 3, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(3, tr, 2)
	}, true)
	f := lookup(t, tree, "/home/u2/f0")
	auth := strat.Authority(f)
	replicateFile(t, eng, cl, auth, f)

	a, b := (auth+1)%3, (auth+2)%3
	cl.nodes[a].Receive(&msg.Request{ID: 1, Op: msg.Write, Target: f, Size: 1000})
	cl.nodes[b].Receive(&msg.Request{ID: 2, Op: msg.Write, Target: f, Size: 9000})
	cl.nodes[a].Receive(&msg.Request{ID: 3, Op: msg.Write, Target: f, Size: 500})
	eng.Run()
	cl.nodes[a].flushWrites(eng.Now())
	cl.nodes[b].flushWrites(eng.Now())
	eng.Run()
	if tree.Size(f) != 9000 {
		t.Fatalf("size = %d, want max 9000", tree.Size(f))
	}
}

func TestStatCallbackCollectsUnflushed(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, strat := buildCluster(t, eng, 3, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(3, tr, 2)
	}, true)
	f := lookup(t, tree, "/home/u3/f0")
	auth := strat.Authority(f)
	replicateFile(t, eng, cl, auth, f)

	other := (auth + 1) % 3
	cl.nodes[other].Receive(&msg.Request{ID: 1, Op: msg.Write, Target: f, Size: 7777})
	eng.Run()
	// A stat at the authority must observe the unflushed write: one
	// callback to the writer and its answer.
	cl.nodes[auth].Receive(&msg.Request{ID: 2, Op: msg.Stat, Target: f})
	eng.Run()
	if n := cl.fab.Class(net.StatCallback).Sent; n != 2 {
		t.Fatalf("size callback messages = %d, want 2", n)
	}
	if tree.Size(f) != 7777 {
		t.Fatalf("stat observed size %d, want 7777", tree.Size(f))
	}
	if cl.writers[f.ID] != 0 {
		t.Fatal("mask not cleared by callback")
	}
	// A second stat needs no callback.
	cl.nodes[auth].Receive(&msg.Request{ID: 3, Op: msg.Stat, Target: f})
	eng.Run()
	if cl.fab.Class(net.StatCallback).Sent != 2 {
		t.Fatal("redundant callback issued")
	}
}

func TestWriteAtAuthorityAppliesDirectly(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, _ := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(1, tr, 2)
	}, false)
	f := lookup(t, tree, "/home/u0/f0")
	cl.nodes[0].Receive(&msg.Request{ID: 1, Op: msg.Write, Target: f, Size: 123})
	eng.Run()
	if tree.Size(f) != 123 {
		t.Fatalf("size = %d", tree.Size(f))
	}
	// Shrinking writes are ignored (monotone).
	cl.nodes[0].Receive(&msg.Request{ID: 2, Op: msg.Write, Target: f, Size: 5})
	eng.Run()
	if tree.Size(f) != 123 {
		t.Fatalf("monotonicity violated: %d", tree.Size(f))
	}
	if cl.nodes[0].Stats.Commits == 0 {
		t.Fatal("write not committed")
	}
}

func TestWriteForwardedWithoutReplica(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, strat := buildCluster(t, eng, 2, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(2, tr, 2)
	}, false)
	f := lookup(t, tree, "/home/u0/f0")
	auth := strat.Authority(f)
	other := (auth + 1) % 2
	cl.nodes[other].Receive(&msg.Request{ID: 1, Op: msg.Write, Target: f, Size: 55})
	eng.Run()
	if cl.nodes[other].Stats.Forwarded != 1 {
		t.Fatal("write without replica not forwarded")
	}
	if tree.Size(f) != 55 {
		t.Fatalf("size = %d", tree.Size(f))
	}
}

func TestPreemptiveReplication(t *testing.T) {
	eng := sim.NewEngine()
	tree := emptyTree()
	home, _ := tree.Mkdir(tree.Root, "home")
	u, _ := tree.Mkdir(home, "u0")
	f, _ := tree.Create(u, "hot")

	strat := partition.NewStaticSubtree(3, tree, 2)
	// The authority never pushes: the flood leaves its count at 12 at
	// most. Nor does it consolidate the pulled replica: the count starts
	// at 2, a tenth of the threshold.
	tc := (&core.TrafficControl{ReplicateThreshold: 20, PreemptiveThreshold: 5}).ForCluster(true, false, false)
	partition.Popularity(f).Add(0, partition.PopHalfLife, 2)
	cl := newTestCluster(eng, tree, 3)
	for i := 0; i < 3; i++ {
		cl.nodes = append(cl.nodes, New(i, eng, testMDSConfig(), strat, tc, cl))
	}
	auth := strat.Authority(f)
	other := (auth + 1) % 3

	// Flood the wrong node: it forwards, then preemptively replicates.
	for i := 0; i < 10; i++ {
		cl.nodes[other].Receive(&msg.Request{ID: uint64(i), Op: msg.Open, Target: f})
	}
	eng.Run()
	if tags := partition.TagsOf(f); !tags.HasReplica(other) || !tags.Has(namespace.ReplicatedAll) {
		t.Fatal("no preemptive replication under forward flood")
	}
	if !cl.nodes[other].Cache().Contains(f.ID) {
		t.Fatal("flooded node did not cache the item")
	}
	// Subsequent reads at the flooded node are served locally.
	before := cl.nodes[other].Stats.Forwarded
	cl.nodes[other].Receive(&msg.Request{ID: 100, Op: msg.Stat, Target: f})
	eng.Run()
	if cl.nodes[other].Stats.Forwarded != before {
		t.Fatal("read still forwarded after preemptive replication")
	}
}
