package core

import (
	"fmt"
	"testing"

	"dynmds/internal/cache"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
)

func buildTree(t *testing.T) (*namespace.Tree, []*namespace.Inode) {
	t.Helper()
	tr := namespace.NewTree()
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

func TestDynamicSubtreeStrategyFlags(t *testing.T) {
	tr, _ := buildTree(t)
	d := NewDynamicSubtree(4, tr, 2)
	if d.Name() != "DynamicSubtree" {
		t.Fatal("name")
	}
	if !d.DirGranular() || !d.NeedsPathTraversal() || d.ClientComputable() {
		t.Fatal("flags wrong")
	}
	a := d.Authority(tr.Root)
	if a < 0 || a >= 4 {
		t.Fatalf("root authority = %d", a)
	}
}

func TestDynamicDirHashing(t *testing.T) {
	tr, homes := buildTree(t)
	d := NewDynamicSubtree(4, tr, 2)
	d.HashDirThreshold = 8
	dir := homes[0] // has 10 children
	before := d.Authority(dir.Child(0))
	_ = before
	if !d.MaybeHashDir(dir) {
		t.Fatal("big directory not hashed")
	}
	if d.DirsHashed != 1 {
		t.Fatalf("DirsHashed = %d", d.DirsHashed)
	}
	// Entries now spread across nodes by name hash.
	got := map[int]bool{}
	for i := 0; i < dir.NumChildren(); i++ {
		a := d.Authority(dir.Child(i))
		if a < 0 || a >= 4 {
			t.Fatalf("authority out of range")
		}
		got[a] = true
	}
	if len(got) < 2 {
		t.Fatalf("hashed directory entries on %d node(s), want spread", len(got))
	}
	// AuthorityForName consistent with Authority for an existing child.
	c := dir.Child(3)
	if d.AuthorityForName(dir, c.Name()) != d.Authority(c) {
		t.Fatal("AuthorityForName mismatch for hashed dir")
	}
	// Shrink below half the threshold: consolidate.
	for dir.NumChildren() > 3 {
		if err := tr.Remove(dir.Child(0)); err != nil {
			t.Fatal(err)
		}
	}
	if !d.MaybeHashDir(dir) {
		t.Fatal("shrunken directory not consolidated")
	}
	if d.DirsHashed != 0 {
		t.Fatalf("DirsHashed = %d after consolidation", d.DirsHashed)
	}
	// No-ops: threshold disabled or target is a file.
	d2 := NewDynamicSubtree(4, tr, 2)
	if d2.MaybeHashDir(dir) {
		t.Fatal("hashing with disabled threshold")
	}
}

func TestTrafficControlDecisions(t *testing.T) {
	tr, homes := buildTree(t)
	_ = tr
	f := homes[0].Child(0)
	tc := &TrafficControl{Enabled: true, ReplicateThreshold: 10, UnreplicateThreshold: 2}
	pop := partition.Popularity(f)

	now := sim.Time(0)
	// Below threshold: Keep.
	pop.Add(now, sim.Second, 5)
	if d := tc.Decide(now, sim.Second, f); d != Keep {
		t.Fatalf("decision = %v, want Keep", d)
	}
	// Cross threshold: Replicate once.
	pop.Add(now, sim.Second, 10)
	if d := tc.Decide(now, sim.Second, f); d != Replicate {
		t.Fatal("no replicate at threshold")
	}
	if !tc.Replicated(f) {
		t.Fatal("not marked replicated")
	}
	if d := tc.Decide(now, sim.Second, f); d != Keep {
		t.Fatal("replicate repeated")
	}
	// Decay below unreplicate threshold: Consolidate.
	later := now + 10*sim.Second
	if d := tc.Decide(later, sim.Second, f); d != Consolidate {
		t.Fatal("no consolidation after decay")
	}
	if tc.Replicated(f) {
		t.Fatal("still marked replicated")
	}
	if tc.Replications != 1 || tc.Consolidations != 1 {
		t.Fatalf("counters = %d/%d", tc.Replications, tc.Consolidations)
	}
}

func TestTrafficControlDisabledAndNil(t *testing.T) {
	tr, homes := buildTree(t)
	_ = tr
	f := homes[0].Child(0)
	partition.Popularity(f).Add(0, sim.Second, 1e6)
	var nilTC *TrafficControl
	if nilTC.Decide(0, sim.Second, f) != Keep || nilTC.Replicated(f) {
		t.Fatal("nil traffic control acted")
	}
	tc := &TrafficControl{Enabled: false, ReplicateThreshold: 1}
	if tc.Decide(0, sim.Second, f) != Keep || tc.Replicated(f) {
		t.Fatal("disabled traffic control acted")
	}
	// Untouched inode (no Pop counter): Keep.
	g := homes[0].Child(1)
	on := DefaultTrafficControl()
	if on.Decide(0, sim.Second, g) != Keep {
		t.Fatal("decision for untouched inode")
	}
}

// fakeNode implements Node for balancer tests.
type fakeNode struct {
	id              int
	load            float64
	c               *cache.Cache
	imports, evicts int
}

func (f *fakeNode) ID() int                   { return f.id }
func (f *fakeNode) Load(now sim.Time) float64 { return f.load }
func (f *fakeNode) Cache() *cache.Cache       { return f.c }
func (f *fakeNode) ImportSubtree(root *namespace.Inode, entries []Migrated) {
	f.imports++
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

func TestBalancerMigratesHotSubtree(t *testing.T) {
	tr, homes := buildTree(t)
	const n = 4
	d := NewDynamicSubtree(n, tr, 2)
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
			partition.Popularity(c).Add(0, sim.Second, 50)
		}
	}

	cfg := DefaultBalancerConfig()
	cfg.MinMeanLoad = 10
	b := NewBalancer(eng, cfg, sim.Second, d, nodes)
	b.Rebalance(0)
	eng.Run()

	if len(b.Migrations) == 0 {
		t.Fatal("no migration executed")
	}
	m := b.Migrations[0]
	if m.From != src {
		t.Fatalf("migrated from %d, want %d", m.From, src)
	}
	if m.To == src {
		t.Fatal("migrated to itself")
	}
	if fakes[m.To].imports != 1 || fakes[src].evicts == 0 {
		t.Fatal("import/evict not invoked")
	}
	// Authority actually moved.
	if got := d.Authority(m.Root); got != m.To {
		t.Fatalf("authority(%s) = %d, want %d", m.Root, got, m.To)
	}
	// The destination received the cached state.
	if len(fakes[m.To].c.EntriesUnder(m.Root)) == 0 {
		t.Fatal("destination cache empty for migrated subtree")
	}
	if len(fakes[src].c.EntriesUnder(m.Root)) != 0 {
		t.Fatal("source still caches migrated subtree")
	}
}

func TestBalancerIdleClusterDoesNothing(t *testing.T) {
	tr, _ := buildTree(t)
	d := NewDynamicSubtree(2, tr, 2)
	eng := sim.NewEngine()
	nodes := []Node{
		&fakeNode{id: 0, load: 1, c: cache.New(10)},
		&fakeNode{id: 1, load: 0, c: cache.New(10)},
	}
	b := NewBalancer(eng, DefaultBalancerConfig(), sim.Second, d, nodes)
	b.Rebalance(0)
	eng.Run()
	if len(b.Migrations) != 0 {
		t.Fatal("idle cluster migrated")
	}
}

func TestBalancerBalancedClusterDoesNothing(t *testing.T) {
	tr, _ := buildTree(t)
	d := NewDynamicSubtree(2, tr, 2)
	eng := sim.NewEngine()
	nodes := []Node{
		&fakeNode{id: 0, load: 1000, c: cache.New(10)},
		&fakeNode{id: 1, load: 1000, c: cache.New(10)},
	}
	b := NewBalancer(eng, DefaultBalancerConfig(), sim.Second, d, nodes)
	b.Rebalance(0)
	eng.Run()
	if len(b.Migrations) != 0 {
		t.Fatal("balanced cluster migrated")
	}
}

func TestBalancerPrefersRedelegatingImports(t *testing.T) {
	tr, homes := buildTree(t)
	const n = 3
	d := NewDynamicSubtree(n, tr, 2)
	eng := sim.NewEngine()
	fakes := make([]*fakeNode, n)
	nodes := make([]Node, n)
	for i := range fakes {
		fakes[i] = &fakeNode{id: i, load: 100, c: cache.New(10000)}
		nodes[i] = fakes[i]
	}
	cfg := DefaultBalancerConfig()
	cfg.MinMeanLoad = 1
	b := NewBalancer(eng, cfg, sim.Second, d, nodes)

	// Import homes[0] into node 1 by hand, then make node 1 busy with
	// comparable popularity on the imported tree and an owned tree.
	src := d.Authority(homes[0])
	if src == 1 {
		src = (src + 1) % n
		_ = d.Table.Delegate(homes[0], src)
	}
	live := fakes[src].c.EntriesUnder(homes[0])
	entries := make([]Migrated, len(live))
	for i, e := range live {
		entries[i] = Migrated{Ino: e.Ino, Class: e.Class}
	}
	_ = d.Table.Delegate(homes[0], 1)
	fakes[1].ImportSubtree(homes[0], entries)
	b.imports[homes[0]] = src

	// Populate node 1's cache with popularity on the imported tree.
	for i := 0; i < homes[0].NumChildren(); i++ {
		c := homes[0].Child(i)
		if _, err := fakes[1].c.InsertPath(c, cache.Auth, false); err != nil {
			t.Fatal(err)
		}
		partition.Popularity(c).Add(0, sim.Second, 30)
	}
	fakes[1].load = 1000

	b.Rebalance(0)
	eng.Run()
	if len(b.Migrations) == 0 {
		t.Fatal("no migration")
	}
	if !b.Migrations[0].Redelegation {
		t.Fatalf("expected redelegation of imported tree, got %+v", b.Migrations[0])
	}
	if b.Migrations[0].Root != homes[0] {
		t.Fatalf("redelegated %v, want %v", b.Migrations[0].Root, homes[0])
	}
}

func TestBalancerStartStopTicker(t *testing.T) {
	tr, _ := buildTree(t)
	d := NewDynamicSubtree(2, tr, 2)
	eng := sim.NewEngine()
	nodes := []Node{
		&fakeNode{id: 0, load: 0, c: cache.New(10)},
		&fakeNode{id: 1, load: 0, c: cache.New(10)},
	}
	cfg := DefaultBalancerConfig()
	cfg.Interval = sim.Second
	b := NewBalancer(eng, cfg, sim.Second, d, nodes)
	b.Start()
	eng.RunUntil(3500 * sim.Millisecond)
	if b.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", b.Rounds)
	}
	b.Stop()
	eng.RunUntil(10 * sim.Second)
	if b.Rounds != 3 {
		t.Fatalf("rounds after stop = %d", b.Rounds)
	}
}

func TestBalancerPriorityPolicy(t *testing.T) {
	tr, homes := buildTree(t)
	const n = 3
	d := NewDynamicSubtree(n, tr, 2)
	eng := sim.NewEngine()
	fakes := make([]*fakeNode, n)
	nodes := make([]Node, n)
	for i := range fakes {
		fakes[i] = &fakeNode{id: i, load: 100, c: cache.New(10000)}
		nodes[i] = fakes[i]
	}
	// Put two equally popular homes on one busy node; give one of them
	// a 10x priority. The balancer should migrate the prioritised one.
	src := d.Authority(homes[0])
	var owned []*namespace.Inode
	for _, h := range homes {
		if d.Authority(h) == src {
			owned = append(owned, h)
		}
	}
	if len(owned) < 2 {
		t.Skip("hash placed fewer than two homes on one node")
	}
	a, b := owned[0], owned[1]
	for _, h := range []*namespace.Inode{a, b} {
		for i := 0; i < h.NumChildren(); i++ {
			c := h.Child(i)
			if _, err := fakes[src].c.InsertPath(c, cache.Auth, false); err != nil {
				t.Fatal(err)
			}
			partition.Popularity(c).Add(0, sim.Second, 30)
		}
	}
	fakes[src].load = 1000

	cfg := DefaultBalancerConfig()
	cfg.MinMeanLoad = 1
	cfg.Priority = func(ino *namespace.Inode) float64 {
		if ino == b || b.IsAncestorOf(ino) {
			return 10
		}
		return 1
	}
	bal := NewBalancer(eng, cfg, sim.Second, d, nodes)
	bal.Rebalance(0)
	eng.Run()
	if len(bal.Migrations) == 0 {
		t.Fatal("no migration")
	}
	if bal.Migrations[0].Root != b {
		t.Fatalf("migrated %s, want prioritised %s", bal.Migrations[0].Root.Path(), b.Path())
	}
}
