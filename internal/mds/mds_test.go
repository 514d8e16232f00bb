package mds

import (
	"fmt"
	"testing"

	"dynmds/internal/core"
	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/net"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/storage"
)

// testCluster wires N nodes over a shared tree and records replies.
type testCluster struct {
	nodes   []*MDS
	tree    *namespace.Tree
	fab     *net.Fabric
	replies []*msg.Reply
}

func (tc *testCluster) Node(i int) *MDS        { return tc.nodes[i] }
func (tc *testCluster) NumMDS() int            { return len(tc.nodes) }
func (tc *testCluster) Tree() *namespace.Tree  { return tc.tree }
func (tc *testCluster) Deliver(rep *msg.Reply) { tc.replies = append(tc.replies, rep) }
func (tc *testCluster) Fabric() *net.Fabric    { return tc.fab }

// newTestCluster builds the fake with a fixed-latency fabric matching
// testMDSConfig's latencies, sized for n nodes.
func newTestCluster(eng *sim.Engine, tree *namespace.Tree, n int) *testCluster {
	cfg := testMDSConfig()
	return &testCluster{
		tree: tree,
		fab:  net.NewFabric(eng, n, net.Fixed{Net: cfg.NetLatency, Fwd: cfg.FwdLatency}),
	}
}

func testMDSConfig() Config {
	return Config{
		CPUService:      100,
		PeerService:     20,
		NetLatency:      50,
		FwdLatency:      10,
		ImportPerRecord: 1,
		CacheCapacity:   100,
		Storage: storage.Config{
			ReadLatency:      1000,
			ReadPerRecord:    5,
			LogAppendLatency: 30,
			LogCapacity:      64,
			DirObjectOrder:   8,
		},
		PopHalfLife:    sim.Second,
		LoadMissWeight: 10,
		RateHalfLife:   sim.Second,
	}
}

// buildCluster creates n nodes over a simple tree with the given
// strategy factory.
func buildCluster(t *testing.T, eng *sim.Engine, n int, makeStrat func(*namespace.Tree) partition.Strategy, trafficOn bool) (*testCluster, *namespace.Tree, partition.Strategy) {
	t.Helper()
	tree := namespace.NewTree()
	home, err := tree.Mkdir(tree.Root, "home")
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 4; u++ {
		h, err := tree.Mkdir(home, fmt.Sprintf("u%d", u))
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 5; f++ {
			if _, err := tree.Create(h, fmt.Sprintf("f%d", f)); err != nil {
				t.Fatal(err)
			}
		}
	}
	strat := makeStrat(tree)
	var tc *core.TrafficControl
	if trafficOn {
		tc = &core.TrafficControl{Enabled: true, ReplicateThreshold: 5, UnreplicateThreshold: 1}
	}
	cl := newTestCluster(eng, tree, n)
	for i := 0; i < n; i++ {
		cl.nodes = append(cl.nodes, New(i, eng, testMDSConfig(), strat, tc, cl))
	}
	return cl, tree, strat
}

func lookup(t *testing.T, tree *namespace.Tree, path string) *namespace.Inode {
	t.Helper()
	n, err := tree.Lookup(path)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestServeMissThenHit(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, strat := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(1, tr, 2)
	}, false)
	m := cl.nodes[0]
	f := lookup(t, tree, "/home/u0/f0")

	m.Receive(&msg.Request{ID: 1, Op: msg.Open, Target: f})
	eng.Run()
	if len(cl.replies) != 1 {
		t.Fatalf("replies = %d", len(cl.replies))
	}
	if m.Stats.Served != 1 || m.Stats.CacheMissLoads == 0 {
		t.Fatalf("stats = %+v", m.Stats)
	}
	// The directory object came with embedded siblings: a second open
	// of a sibling must hit without disk I/O.
	reads := m.store.Stats.DirReads + m.store.Stats.InodeReads
	g := lookup(t, tree, "/home/u0/f1")
	m.Receive(&msg.Request{ID: 2, Op: msg.Open, Target: g})
	eng.Run()
	if got := m.store.Stats.DirReads + m.store.Stats.InodeReads; got != reads {
		t.Fatalf("sibling open went to disk (%d -> %d reads)", reads, got)
	}
	if len(cl.replies) != 2 {
		t.Fatalf("replies = %d", len(cl.replies))
	}
	// Hints present for non-client-computable strategies, excluding root.
	for _, h := range cl.replies[0].Hints {
		if h.Ino == tree.Root.ID {
			t.Fatal("hint for root emitted")
		}
	}
	if len(cl.replies[0].Hints) == 0 {
		t.Fatal("no hints on subtree strategy reply")
	}
	_ = strat
}

func TestPerInodeLayoutDoesNotPrefetch(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, _ := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		return partition.FileHash{N: 1}
	}, false)
	m := cl.nodes[0]
	m.Receive(&msg.Request{ID: 1, Op: msg.Open, Target: lookup(t, tree, "/home/u0/f0")})
	eng.Run()
	m.Receive(&msg.Request{ID: 2, Op: msg.Open, Target: lookup(t, tree, "/home/u0/f1")})
	eng.Run()
	// Sibling was NOT prefetched: second open reads again.
	if m.store.Stats.InodeReads < 2 {
		t.Fatalf("inode reads = %d, want >= 2", m.store.Stats.InodeReads)
	}
	if m.store.Stats.DirReads != 0 {
		t.Fatalf("dir reads = %d for per-inode layout", m.store.Stats.DirReads)
	}
}

func TestForwardingToAuthority(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, strat := buildCluster(t, eng, 4, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(4, tr, 2)
	}, false)
	f := lookup(t, tree, "/home/u0/f0")
	auth := strat.Authority(f)
	wrong := (auth + 1) % 4

	cl.nodes[wrong].Receive(&msg.Request{ID: 1, Op: msg.Stat, Target: f})
	eng.Run()
	if len(cl.replies) != 1 {
		t.Fatalf("replies = %d", len(cl.replies))
	}
	if cl.replies[0].ServedBy != auth {
		t.Fatalf("served by %d, want %d", cl.replies[0].ServedBy, auth)
	}
	if cl.nodes[wrong].Stats.Forwarded != 1 {
		t.Fatalf("forwards = %d", cl.nodes[wrong].Stats.Forwarded)
	}
	if cl.replies[0].Req.Hops != 1 {
		t.Fatalf("hops = %d", cl.replies[0].Req.Hops)
	}
}

func TestTrafficControlReplicatesAndServesLocally(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, strat := buildCluster(t, eng, 3, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(3, tr, 2)
	}, true)
	f := lookup(t, tree, "/home/u1/f0")
	auth := strat.Authority(f)

	// Hammer the authority past the replication threshold (5).
	for i := 0; i < 10; i++ {
		cl.nodes[auth].Receive(&msg.Request{ID: uint64(i), Op: msg.Open, Target: f})
	}
	eng.Run()
	if cl.nodes[auth].Stats.ReplicasPushed == 0 {
		t.Fatal("no replicas pushed despite hot item")
	}
	other := (auth + 1) % 3
	if cl.nodes[other].Stats.ReplicaInstalls == 0 {
		t.Fatal("peer did not install replica")
	}
	// A read at a non-authoritative node is now served locally.
	before := cl.nodes[other].Stats.Forwarded
	cl.nodes[other].Receive(&msg.Request{ID: 99, Op: msg.Stat, Target: f})
	eng.Run()
	if cl.nodes[other].Stats.Forwarded != before {
		t.Fatal("replicated read was forwarded")
	}
	if cl.nodes[other].Stats.ReplicaServes != 1 {
		t.Fatalf("replica serves = %d", cl.nodes[other].Stats.ReplicaServes)
	}
	// Updates still go to the authority.
	cl.nodes[other].Receive(&msg.Request{ID: 100, Op: msg.Chmod, Target: f})
	eng.Run()
	if cl.nodes[other].Stats.Forwarded != before+1 {
		t.Fatal("update to replicated item not forwarded")
	}
}

func TestUpdatesMutateTreeAndCommit(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, _ := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(1, tr, 2)
	}, false)
	m := cl.nodes[0]
	dir := lookup(t, tree, "/home/u2")

	m.Receive(&msg.Request{ID: 1, Op: msg.Create, Target: dir, NewName: "newfile"})
	eng.Run()
	nf, err := tree.Lookup("/home/u2/newfile")
	if err != nil {
		t.Fatal("create did not mutate tree:", err)
	}
	if !m.Cache().Contains(nf.ID) {
		t.Fatal("created inode not cached")
	}
	if m.Stats.Commits == 0 || m.store.Stats.LogAppends == 0 {
		t.Fatal("create not committed to log")
	}

	m.Receive(&msg.Request{ID: 2, Op: msg.Mkdir, Target: dir, NewName: "newdir"})
	eng.Run()
	nd := lookup(t, tree, "/home/u2/newdir")

	m.Receive(&msg.Request{ID: 3, Op: msg.Rename, Target: nf, DstDir: nd, NewName: "moved"})
	eng.Run()
	if nf.Path() != "/home/u2/newdir/moved" {
		t.Fatalf("rename failed: %s", nf.Path())
	}

	m.Receive(&msg.Request{ID: 4, Op: msg.Unlink, Target: nf})
	eng.Run()
	if _, err := tree.Lookup("/home/u2/newdir/moved"); err == nil {
		t.Fatal("unlink did not remove file")
	}
	if m.Cache().Contains(nf.ID) {
		t.Fatal("unlinked inode still cached")
	}

	mode := dir.Mode
	m.Receive(&msg.Request{ID: 5, Op: msg.Chmod, Target: dir})
	eng.Run()
	if dir.Mode == mode {
		t.Fatal("chmod did not change mode")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLazyHybridStalenessCost(t *testing.T) {
	eng := sim.NewEngine()
	var lh *partition.LazyHybrid
	cl, tree, _ := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		lh = partition.NewLazyHybrid(1)
		return lh
	}, false)
	m := cl.nodes[0]
	dir := lookup(t, tree, "/home/u3")
	f := lookup(t, tree, "/home/u3/f0")

	// Prime the file into cache.
	m.Receive(&msg.Request{ID: 1, Op: msg.Open, Target: f})
	eng.Run()
	// Directory chmod invalidates everything beneath.
	m.Receive(&msg.Request{ID: 2, Op: msg.Chmod, Target: dir})
	eng.Run()
	if lh.Debt == 0 {
		t.Fatal("no LH debt after dir chmod")
	}
	debt := lh.Debt
	m.Receive(&msg.Request{ID: 3, Op: msg.Stat, Target: f})
	eng.Run()
	if m.Stats.LHApplied != 1 {
		t.Fatalf("LHApplied = %d", m.Stats.LHApplied)
	}
	if lh.Debt != debt-1 {
		t.Fatalf("debt = %d, want %d", lh.Debt, debt-1)
	}
	// Second access: no further propagation.
	m.Receive(&msg.Request{ID: 4, Op: msg.Stat, Target: f})
	eng.Run()
	if m.Stats.LHApplied != 1 {
		t.Fatal("LH applied twice for one staleness")
	}
}

func TestReaddirPrefetchesThenStatsHit(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, _ := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(1, tr, 2)
	}, false)
	m := cl.nodes[0]
	dir := lookup(t, tree, "/home/u1")

	m.Receive(&msg.Request{ID: 1, Op: msg.Readdir, Target: dir})
	eng.Run()
	reads := m.store.Stats.DirReads + m.store.Stats.InodeReads
	// All children must now be cached: stats go without I/O.
	for i := 0; i < dir.NumChildren(); i++ {
		m.Receive(&msg.Request{ID: uint64(10 + i), Op: msg.Stat, Target: dir.Child(i)})
	}
	eng.Run()
	if got := m.store.Stats.DirReads + m.store.Stats.InodeReads; got != reads {
		t.Fatalf("stats after readdir hit disk: %d -> %d", reads, got)
	}
}

func TestImportExportSubtree(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, _ := buildCluster(t, eng, 2, func(tr *namespace.Tree) partition.Strategy {
		return core.NewDynamicSubtree(2, tr, 2)
	}, false)
	h := lookup(t, tree, "/home/u0")
	src, dst := cl.nodes[0], cl.nodes[1]

	// Prime src's cache with the subtree.
	for i := 0; i < h.NumChildren(); i++ {
		if _, err := src.Cache().InsertPath(h.Child(i), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	live := src.Cache().EntriesUnder(h)
	entries := make([]core.Migrated, len(live))
	for i, e := range live {
		entries[i] = core.Migrated{Ino: e.Ino, Class: e.Class}
	}
	dst.ImportSubtree(h, entries)
	src.EvictSubtree(h)
	eng.Run()
	if len(dst.Cache().EntriesUnder(h)) < len(entries) {
		t.Fatalf("destination has %d entries, want >= %d",
			len(dst.Cache().EntriesUnder(h)), len(entries))
	}
	if len(src.Cache().EntriesUnder(h)) != 0 {
		t.Fatal("source still caches subtree")
	}
	if dst.Stats.Imported == 0 || src.Stats.Exported == 0 {
		t.Fatal("import/export stats missing")
	}
	if err := dst.Cache().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverDropsAndRecoverWarmsFromLog(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, _ := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(1, tr, 2)
	}, false)
	m := cl.nodes[0]
	dir := lookup(t, tree, "/home/u0")

	// Commit some updates so the log holds a working set.
	for i := 0; i < 5; i++ {
		m.Receive(&msg.Request{ID: uint64(i), Op: msg.Create, Target: dir, NewName: fmt.Sprintf("n%d", i)})
	}
	eng.Run()
	served := m.Stats.Served

	m.Fail()
	if !m.Failed() {
		t.Fatal("not failed")
	}
	m.Receive(&msg.Request{ID: 100, Op: msg.Stat, Target: dir})
	eng.Run()
	if m.Stats.Served != served || m.Stats.Dropped != 1 {
		t.Fatal("failed node served a request")
	}

	// Recovery pre-warms the cache from the log's working set.
	m.Cache().RemoveSubtree(tree.Root)
	warmed := m.Recover()
	if warmed == 0 {
		t.Fatal("recovery warmed nothing")
	}
	if m.Cache().Len() == 0 {
		t.Fatal("cache empty after recovery")
	}
	m.Receive(&msg.Request{ID: 101, Op: msg.Stat, Target: dir})
	eng.Run()
	if m.Stats.Served != served+1 {
		t.Fatal("recovered node did not serve")
	}
}

func TestLoadMetricReflectsActivity(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, _ := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(1, tr, 2)
	}, false)
	m := cl.nodes[0]
	if m.Load(eng.Now()) != 0 {
		t.Fatal("idle load not zero")
	}
	// Prime the cache, then issue repeated stats that hit.
	m.Receive(&msg.Request{ID: 0, Op: msg.Stat, Target: lookup(t, tree, "/home/u0/f0")})
	eng.Run()
	for i := 1; i < 20; i++ {
		m.Receive(&msg.Request{ID: uint64(i), Op: msg.Stat, Target: lookup(t, tree, "/home/u0/f0")})
	}
	eng.Run()
	if m.Load(eng.Now()) <= 0 {
		t.Fatal("load did not rise with activity")
	}
	if m.HitRate() <= 0 {
		t.Fatal("hit rate zero after repeated stats")
	}
}

func TestRemotePrefixFetch(t *testing.T) {
	eng := sim.NewEngine()
	// DirHash scatters directories: serving a deep file requires prefix
	// fetches from peers.
	cl, tree, strat := buildCluster(t, eng, 3, func(tr *namespace.Tree) partition.Strategy {
		return partition.DirHash{N: 3}
	}, false)
	f := lookup(t, tree, "/home/u0/f0")
	auth := strat.Authority(f)
	cl.nodes[auth].Receive(&msg.Request{ID: 1, Op: msg.Open, Target: f})
	eng.Run()
	if len(cl.replies) != 1 {
		t.Fatalf("replies = %d", len(cl.replies))
	}
	// /home and /home/u0 prefixes hash elsewhere with high probability
	// on a 3-node cluster; at least one remote fetch should occur
	// unless all prefixes landed on auth (possible but not with this
	// fixed tree/hash: assert via total across a few files).
	total := uint64(0)
	for i := 0; i < 4; i++ {
		g := lookup(t, tree, fmt.Sprintf("/home/u%d/f0", i))
		cl.nodes[strat.Authority(g)].Receive(&msg.Request{ID: uint64(10 + i), Op: msg.Open, Target: g})
	}
	eng.Run()
	for _, n := range cl.nodes {
		total += n.Stats.RemoteFetches
	}
	if total == 0 {
		t.Fatal("no remote prefix fetches under DirHash")
	}
}

func TestFetchCoalescing(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, _ := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(1, tr, 2)
	}, false)
	m := cl.nodes[0]
	f := lookup(t, tree, "/home/u0/f0")
	// A simultaneous burst for one cold file must coalesce on the same
	// in-flight fetches: at most one read per chain link plus target.
	for i := 0; i < 25; i++ {
		m.Receive(&msg.Request{ID: uint64(i), Op: msg.Stat, Target: f})
	}
	eng.Run()
	if len(cl.replies) != 25 {
		t.Fatalf("replies = %d", len(cl.replies))
	}
	reads := m.store.Stats.DirReads + m.store.Stats.InodeReads
	if reads > 4 {
		t.Fatalf("reads = %d, want <= 4 (coalesced)", reads)
	}
}

// TestDirLoadAllocFree pins the directory-load path: in steady state a
// load allocates nothing, whether it runs alone or two later requests
// coalesce onto it, and the initiator's continuation runs first.
func TestDirLoadAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	cl, tree, _ := buildCluster(t, eng, 1, func(tr *namespace.Tree) partition.Strategy {
		return partition.NewStaticSubtree(1, tr, 2)
	}, false)
	m := cl.nodes[0]
	dirs := []*namespace.Inode{lookup(t, tree, "/home/u0"), lookup(t, tree, "/home/u1")}
	var order []int
	note := func(_, b any) { order = append(order, *b.(*int)) }
	ids := []int{0, 1, 2}
	for _, waiters := range []int{1, 3} {
		load := func() {
			order = order[:0]
			// Two directories in flight at once, so two lists are out.
			for _, d := range dirs {
				for w := 0; w < waiters; w++ {
					m.loadDirContents(d, note, nil, &ids[w])
				}
			}
			eng.Run()
		}
		load()
		if allocs := testing.AllocsPerRun(50, load); allocs != 0 {
			t.Errorf("%d waiter(s) per load: %v allocations per pair of loads, want 0", waiters, allocs)
		}
		want := append(ids[:waiters:waiters], ids[:waiters]...)
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("%d waiter(s) per load: completion order %v, want %v", waiters, order, want)
		}
		if len(m.pendingDir) != 0 {
			t.Fatalf("%d directory loads still pending", len(m.pendingDir))
		}
	}
}
