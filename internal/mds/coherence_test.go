package mds

import (
	"fmt"
	"testing"

	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/net"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
)

func TestCoherenceUpdatePropagation(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, strat := buildCluster(t, eng, 3, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(3, tr, 2)
	}, true)
	f := lookup(t, tree, "/home/u1/f0")
	auth := strat.Authority(f)

	// Make the file hot so it replicates everywhere.
	for i := 0; i < 10; i++ {
		cl.nodes[auth].Receive(&msg.Request{ID: uint64(i), Op: msg.Open, Target: f})
	}
	eng.Run()
	tags := partition.TagsOf(f)
	if tags.ReplicaSet == 0 {
		t.Fatal("no replica set recorded after replication")
	}
	for i := 0; i < 3; i++ {
		if i != auth && !tags.HasReplica(i) {
			t.Fatalf("node %d missing from replica set", i)
		}
	}

	// An update at the authority pushes coherence to every holder.
	before := cl.fab.Class(net.Coherence)
	cl.nodes[auth].Receive(&msg.Request{ID: 100, Op: msg.Chmod, Target: f})
	eng.Run()
	after := cl.fab.Class(net.Coherence)
	if sent := after.Sent - before.Sent; sent != 2 {
		t.Fatalf("coherence sent = %d, want 2", sent)
	}
	if recvd := after.Delivered - before.Delivered; recvd != 2 {
		t.Fatalf("coherence received = %d, want 2", recvd)
	}
}

func TestCoherenceEvictNotice(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, strat := buildCluster(t, eng, 2, func(tr *namespace.Tree) partition.Strategy {
		return partition.DirHash{N: 2}
	}, false)

	// Find a file whose authority differs from its parent directory's
	// prefix chain owner so serving it installs a remote prefix.
	var served *MDS
	for u := 0; u < 4; u++ {
		f := lookup(t, tree, "/home/u"+string(rune('0'+u))+"/f0")
		a := strat.Authority(f)
		cl.nodes[a].Receive(&msg.Request{ID: uint64(u), Op: msg.Open, Target: f})
		served = cl.nodes[a]
	}
	eng.Run()
	_ = served
	totalRemote := cl.nodes[0].Stats.RemoteFetches + cl.nodes[1].Stats.RemoteFetches
	if totalRemote == 0 {
		t.Skip("hash layout put every prefix local; nothing to evict")
	}

	// Force eviction of everything by filling the caches well past
	// capacity with fresh records; replica holders must notify
	// authorities as their replicas fall out.
	dir := lookup(t, tree, "/home/u3")
	for i := 0; i < 2*cl.nodes[0].cfg.CacheCapacity; i++ {
		n, err := tree.Create(dir, fmt.Sprintf("spam%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range cl.nodes {
			node.Cache().InsertDetached(n, 0, false)
		}
	}
	eng.Run()
	if cl.fab.Class(net.EvictNotice).Sent == 0 {
		t.Fatal("no eviction notices despite replica evictions")
	}
}

func TestCoherenceNoTrafficForUnreplicated(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, _ := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(1, tr, 2)
	}, false)
	m := cl.nodes[0]
	f := lookup(t, tree, "/home/u0/f0")
	m.Receive(&msg.Request{ID: 1, Op: msg.Chmod, Target: f})
	eng.Run()
	if sent := cl.fab.Class(net.Coherence).Sent; sent != 0 {
		t.Fatalf("coherence sent for unreplicated item: %d", sent)
	}
}

func TestUnlinkWhileOpenRetainsRecord(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, _ := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(1, tr, 2)
	}, false)
	m := cl.nodes[0]
	f := lookup(t, tree, "/home/u0/f0")

	m.Receive(&msg.Request{ID: 1, Op: msg.Open, Target: f})
	eng.Run()
	m.Receive(&msg.Request{ID: 2, Op: msg.Unlink, Target: f})
	eng.Run()
	// Gone from the namespace, retained as an orphan in the cache.
	if _, err := tree.Lookup("/home/u0/f0"); err == nil {
		t.Fatal("unlink did not remove the name")
	}
	if len(m.orphans) != 1 {
		t.Fatalf("orphans retained = %d", len(m.orphans))
	}
	if !m.Cache().Contains(f.ID) {
		t.Fatal("open-orphan evicted from cache")
	}
	// The close reaps it.
	m.Receive(&msg.Request{ID: 3, Op: msg.Close, Target: f})
	eng.Run()
	if len(m.orphans) != 0 {
		t.Fatalf("%d orphans left after the last close", len(m.orphans))
	}
	if m.Cache().Contains(f.ID) {
		t.Fatal("orphan record survived the last close")
	}
}

func TestUnlinkClosedFileReapsImmediately(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, _ := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(1, tr, 2)
	}, false)
	m := cl.nodes[0]
	f := lookup(t, tree, "/home/u1/f0")
	m.Receive(&msg.Request{ID: 1, Op: msg.Open, Target: f})
	m.Receive(&msg.Request{ID: 2, Op: msg.Close, Target: f})
	eng.Run()
	m.Receive(&msg.Request{ID: 3, Op: msg.Unlink, Target: f})
	eng.Run()
	if len(m.orphans) != 0 {
		t.Fatal("closed file retained as orphan")
	}
	if m.Cache().Contains(f.ID) {
		t.Fatal("unlinked record still cached")
	}
}
