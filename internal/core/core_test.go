package core

import (
	"fmt"
	"slices"
	"testing"

	"dynmds/internal/cache"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
)

func buildTree(t *testing.T) (*namespace.Tree, []*namespace.Inode) {
	t.Helper()
	empty, _ := namespace.NewBuilder().Freeze()
	tr := namespace.NewOverlay(empty)
	home, err := tr.Mkdir(tr.Root, "home")
	if err != nil {
		t.Fatal(err)
	}
	var homes []*namespace.Inode
	for u := 0; u < 8; u++ {
		h, err := tr.Mkdir(home, fmt.Sprintf("u%d", u))
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 10; f++ {
			if _, err := tr.Create(h, fmt.Sprintf("f%d", f)); err != nil {
				t.Fatal(err)
			}
		}
		homes = append(homes, h)
	}
	return tr, homes
}

func TestTrafficControlDecisions(t *testing.T) {
	tr, homes := buildTree(t)
	_ = tr
	f := homes[0].Child(0)
	tc := (&TrafficControl{ReplicateThreshold: 10}).ForCluster(true, false, false)
	pop := partition.Popularity(f)
	decide := func(now sim.Time) Decision {
		d := tc.Peek(now, f)
		tc.Commit(d, f)
		return d
	}

	now := sim.Time(0)
	// Below threshold: Keep.
	pop.Add(now, partition.PopHalfLife, 5)
	if d := decide(now); d != Keep {
		t.Fatalf("decision = %v, want Keep", d)
	}
	// Cross threshold: Replicate once.
	pop.Add(now, partition.PopHalfLife, 10)
	if d := decide(now); d != Replicate {
		t.Fatal("no replicate at threshold")
	}
	if !tc.Replicated(f) {
		t.Fatal("not marked replicated")
	}
	if d := decide(now); d != Keep {
		t.Fatal("replicate repeated")
	}
	// Decay below unreplicate threshold: Consolidate.
	later := now + 10*sim.Second
	if d := decide(later); d != Consolidate {
		t.Fatal("no consolidation after decay")
	}
	if tc.Replicated(f) {
		t.Fatal("still marked replicated")
	}
	if tc.Replications != 1 {
		t.Fatalf("replications = %d, want 1", tc.Replications)
	}
}

func TestTrafficControlDisabledAndNil(t *testing.T) {
	tr, homes := buildTree(t)
	_ = tr
	f := homes[0].Child(0)
	partition.Popularity(f).Add(0, partition.PopHalfLife, 1e6)
	var nilTC *TrafficControl
	if nilTC.Peek(0, f) != Keep || nilTC.Replicated(f) || nilTC.Commit(Replicate, f) ||
		nilTC.Grant(0, f, false) || nilTC.Pull(0, f, false) {
		t.Fatal("nil traffic control acted")
	}
	// Untouched inode (no Pop counter): Keep.
	g := homes[0].Child(1)
	on := DefaultTrafficControl().ForCluster(true, true, true)
	if on.Peek(0, g) != Keep || on.Grant(0, g, false) {
		t.Fatal("decision for untouched inode")
	}
}

// fakeNode implements Node for balancer tests.
type fakeNode struct {
	id     int
	load   float64
	c      *cache.Cache
	polled int                // heartbeat rounds that read the load
	roots  []*namespace.Inode // imported subtree roots, in order
	evicts int
}

func (f *fakeNode) Load(now sim.Time) float64 { f.polled++; return f.load }
func (f *fakeNode) Cache() *cache.Cache       { return f.c }
func (f *fakeNode) ImportSubtree(root *namespace.Inode, entries []Migrated) {
	f.roots = append(f.roots, root)
	for _, e := range entries {
		if _, err := f.c.InsertPath(e.Ino, e.Class, false); err != nil {
			panic(err)
		}
	}
}
func (f *fakeNode) EvictSubtree(root *namespace.Inode) {
	f.evicts++
	f.c.RemoveSubtree(root)
}
func (f *fakeNode) Failed() bool { return false }

func TestBalancerMigratesHotSubtree(t *testing.T) {
	tr, homes := buildTree(t)
	const n = 4
	d := partition.NewStaticSubtree(n, tr, 2)
	eng := sim.NewEngine()

	nodes := make([]Node, n)
	fakes := make([]*fakeNode, n)
	for i := 0; i < n; i++ {
		fakes[i] = &fakeNode{id: i, load: 100, c: cache.New(10000)}
		nodes[i] = fakes[i]
	}
	// Make node busy: find the node owning homes[0]; load it up and
	// populate its cache with hot entries under two homes it owns.
	src := d.Authority(homes[0])
	fakes[src].load = 1000
	for _, h := range homes {
		if d.Authority(h) != src {
			continue
		}
		for i := 0; i < h.NumChildren(); i++ {
			c := h.Child(i)
			if _, err := fakes[src].c.InsertPath(c, cache.Auth, false); err != nil {
				t.Fatal(err)
			}
			partition.Popularity(c).Add(0, partition.PopHalfLife, 50)
		}
	}

	b := NewBalancer(eng, DefaultBalancerConfig(), d.Table, nodes)
	b.Rebalance(0)
	eng.Run()

	if b.Migrations == 0 {
		t.Fatal("no migration executed")
	}
	// One node imported one subtree, and only the busy node evicted.
	to := -1
	for i, f := range fakes {
		if len(f.roots) > 0 {
			if to >= 0 {
				t.Fatalf("nodes %d and %d both imported", to, i)
			}
			to = i
		}
		if i != src && f.evicts != 0 {
			t.Fatalf("node %d evicted, want only the busy node %d", i, src)
		}
	}
	if to < 0 || to == src {
		t.Fatalf("migrated from %d to %d", src, to)
	}
	if len(fakes[to].roots) != 1 || fakes[src].evicts == 0 {
		t.Fatal("import/evict not invoked")
	}
	root := fakes[to].roots[0]
	// Authority actually moved.
	if got := d.Authority(root); got != to {
		t.Fatalf("authority(%s) = %d, want %d", root, got, to)
	}
	// The destination received the cached state.
	if fakes[to].c.CountUnder(root) == 0 {
		t.Fatal("destination cache empty for migrated subtree")
	}
	if fakes[src].c.CountUnder(root) != 0 {
		t.Fatal("source still caches migrated subtree")
	}
}

func TestBalancerIdleClusterDoesNothing(t *testing.T) {
	tr, _ := buildTree(t)
	d := partition.NewStaticSubtree(2, tr, 2)
	eng := sim.NewEngine()
	nodes := []Node{
		&fakeNode{id: 0, load: 1, c: cache.New(10)},
		&fakeNode{id: 1, load: 0, c: cache.New(10)},
	}
	b := NewBalancer(eng, DefaultBalancerConfig(), d.Table, nodes)
	b.Rebalance(0)
	eng.Run()
	if b.Migrations != 0 {
		t.Fatal("idle cluster migrated")
	}
}

func TestBalancerBalancedClusterDoesNothing(t *testing.T) {
	tr, _ := buildTree(t)
	d := partition.NewStaticSubtree(2, tr, 2)
	eng := sim.NewEngine()
	nodes := []Node{
		&fakeNode{id: 0, load: 1000, c: cache.New(10)},
		&fakeNode{id: 1, load: 1000, c: cache.New(10)},
	}
	b := NewBalancer(eng, DefaultBalancerConfig(), d.Table, nodes)
	b.Rebalance(0)
	eng.Run()
	if b.Migrations != 0 {
		t.Fatal("balanced cluster migrated")
	}
}

func TestBalancerPrefersRedelegatingImports(t *testing.T) {
	tr, homes := buildTree(t)
	const n = 3
	d := partition.NewStaticSubtree(n, tr, 2)
	eng := sim.NewEngine()
	fakes := make([]*fakeNode, n)
	nodes := make([]Node, n)
	for i := range fakes {
		fakes[i] = &fakeNode{id: i, load: 100, c: cache.New(10000)}
		nodes[i] = fakes[i]
	}
	b := NewBalancer(eng, DefaultBalancerConfig(), d.Table, nodes)

	// Migrate homes[0] into node 1, then make node 1 busy with
	// comparable popularity on the imported tree and an owned tree.
	src := d.Authority(homes[0])
	if src == 1 {
		src = (src + 1) % n
		_ = d.Table.Delegate(homes[0], src)
	}
	b.transfer(homes[0], src, 1)
	imported := b.Migrations

	// Populate node 1's cache with popularity on the imported tree and,
	// a little hotter, on a tree it owns: split-first would pick that.
	owned := -1
	for i, h := range homes[1:] {
		if d.Authority(h) == 1 && slices.Contains(d.Table.RootsOf(1), h) {
			owned = i + 1
			break
		}
	}
	if owned < 0 {
		t.Fatal("node 1 owns no home directory as a root")
	}
	for _, hot := range []struct {
		h   *namespace.Inode
		pop float64
	}{{homes[0], 30}, {homes[owned], 40}} {
		for i := 0; i < hot.h.NumChildren(); i++ {
			c := hot.h.Child(i)
			if _, err := fakes[1].c.InsertPath(c, cache.Auth, false); err != nil {
				t.Fatal(err)
			}
			partition.Popularity(c).Add(0, partition.PopHalfLife, hot.pop)
		}
	}
	fakes[1].load = 1000

	b.Rebalance(0)
	eng.Run()
	if b.Migrations == imported {
		t.Fatal("no migration")
	}
	// The whole imported tree moved on, and is now an import its
	// new authority took from node 1.
	if got := d.Authority(homes[0]); got == 1 {
		t.Fatalf("imported tree %v not redelegated", homes[0])
	}
	if from, ok := b.imports[homes[0]]; !ok || from != 1 {
		t.Fatalf("imports[%v] = %d, %v; want delegated by node 1", homes[0], from, ok)
	}
}

func TestBalancerStartStopTicker(t *testing.T) {
	tr, _ := buildTree(t)
	d := partition.NewStaticSubtree(2, tr, 2)
	eng := sim.NewEngine()
	nodes := []Node{
		&fakeNode{id: 0, load: 0, c: cache.New(10)},
		&fakeNode{id: 1, load: 0, c: cache.New(10)},
	}
	cfg := DefaultBalancerConfig()
	cfg.Interval = sim.Second
	b := NewBalancer(eng, cfg, d.Table, nodes)
	b.Start()
	// Every round polls each node's load once.
	polled := func() int { return nodes[0].(*fakeNode).polled }
	eng.RunUntil(3500 * sim.Millisecond)
	if polled() != 3 {
		t.Fatalf("rounds = %d, want 3", polled())
	}
	b.Stop()
	eng.RunUntil(10 * sim.Second)
	if polled() != 3 {
		t.Fatalf("rounds after stop = %d", polled())
	}
}

// jobNode imports the way an MDS does: one CPU job, run later, installs
// the entries the balancer handed over.
type jobNode struct {
	fakeNode
	cpu *sim.Server
}

func (j *jobNode) ImportSubtree(root *namespace.Inode, entries []Migrated) {
	j.cpu.Submit(sim.Millisecond, func() {
		for _, e := range entries {
			if _, err := j.c.InsertPath(e.Ino, e.Class, false); err != nil {
				panic(err)
			}
		}
	})
}

// TestTransferAllocs: a migration allocates the importer's entries,
// once and exactly sized, and the import job; the exporter's cache is
// walked twice (count, then fill) with nothing gathered in between.
func TestTransferAllocs(t *testing.T) {
	tr, homes := buildTree(t)
	d := partition.NewStaticSubtree(2, tr, 2)
	eng := sim.NewEngine()
	fakes := make([]*jobNode, 2)
	nodes := make([]Node, 2)
	for i := range fakes {
		fakes[i] = &jobNode{fakeNode: fakeNode{id: i, c: cache.New(1000)}, cpu: sim.NewServer(eng, 1)}
		nodes[i] = fakes[i]
	}
	b := NewBalancer(eng, DefaultBalancerConfig(), d.Table, nodes)
	root := homes[0]
	src := d.Authority(root)
	for i := 0; i < root.NumChildren(); i++ {
		if _, err := fakes[src].c.InsertPath(root.Child(i), cache.Auth, false); err != nil {
			t.Fatal(err)
		}
	}
	want := fakes[src].c.CountUnder(root)
	hop := func() {
		b.transfer(root, src, 1-src)
		eng.Run()
		src = 1 - src
	}
	hop()
	hop()
	if allocs := testing.AllocsPerRun(50, hop); allocs > 2 {
		t.Errorf("a transfer allocated %.1f times, want at most 2 (the entries and the import job)", allocs)
	}
	if got := fakes[src].c.CountUnder(root); got != want || fakes[1-src].c.CountUnder(root) != 0 {
		t.Fatalf("after the hops the owner caches %d entries under the root, want %d; the other %d",
			got, want, fakes[1-src].c.CountUnder(root))
	}
}
