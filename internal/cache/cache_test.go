package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dynmds/internal/namespace"
)

// buildChain makes /d0/d1/.../d(n-1)/f and returns the tree, dirs, file.
// emptyTree returns a tree holding only the root directory.
func emptyTree() *namespace.Tree {
	f, _ := namespace.NewBuilder().Freeze()
	return namespace.NewOverlay(f)
}

func buildChain(t *testing.T, n int) (*namespace.Tree, []*namespace.Inode, *namespace.Inode) {
	t.Helper()
	tr := emptyTree()
	parent := tr.Root
	var dirs []*namespace.Inode
	for i := 0; i < n; i++ {
		d, err := tr.Mkdir(parent, fmt.Sprintf("d%d", i))
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, d)
		parent = d
	}
	f, err := tr.Create(parent, "f")
	if err != nil {
		t.Fatal(err)
	}
	return tr, dirs, f
}

func TestInsertRequiresParent(t *testing.T) {
	_, _, f := buildChain(t, 2)
	c := New(10)
	if _, err := c.Insert(f, Auth, false); err == nil {
		t.Fatal("insert without cached parent succeeded")
	}
	if _, err := c.InsertPath(f, Auth, false); err != nil {
		t.Fatal(err)
	}
	if c.n != 4 { // root + d0 + d1 + f
		t.Fatalf("len = %d, want 4", c.n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeafOnlyEviction(t *testing.T) {
	tr, dirs, _ := buildChain(t, 2)
	c := New(4)
	// Fill with a chain: root,d0,d1 + leaf files.
	var files []*namespace.Inode
	for i := 0; i < 5; i++ {
		f, _ := tr.Create(dirs[1], fmt.Sprintf("x%d", i))
		files = append(files, f)
		if _, err := c.InsertPath(f, Auth, false); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if c.n > 4 {
		t.Fatalf("len = %d exceeds capacity", c.n)
	}
	// Ancestor chain must survive: d1's entry is pinned by cached files.
	if !c.Contains(dirs[1].ID) || !c.Contains(dirs[0].ID) || !c.Contains(tr.Root.ID) {
		t.Fatal("ancestor chain evicted")
	}
	// The only evictable entries were leaf files; the oldest went first.
	if c.Contains(files[0].ID) {
		t.Fatal("oldest leaf not evicted")
	}
	if !c.Contains(files[4].ID) {
		t.Fatal("newest leaf evicted")
	}
}

func TestWarmEvictedBeforeHot(t *testing.T) {
	tr, dirs, _ := buildChain(t, 1)
	c := New(5)
	hot, _ := tr.Create(dirs[0], "hot")
	if _, err := c.InsertPath(hot, Auth, false); err != nil {
		t.Fatal(err)
	}
	warm1, _ := tr.Create(dirs[0], "w1")
	warm2, _ := tr.Create(dirs[0], "w2")
	c.InsertPath(warm1, Auth, true)
	c.InsertPath(warm2, Auth, true)
	// Cache now: root, d0, hot, w1, w2 (full). Insert another hot item;
	// w1 (warm LRU) must be evicted even though hot is older.
	hot2, _ := tr.Create(dirs[0], "hot2")
	c.InsertPath(hot2, Auth, false)
	if c.Contains(warm1.ID) {
		t.Fatal("warm LRU survived")
	}
	if !c.Contains(hot.ID) {
		t.Fatal("hot entry evicted while warm existed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWarmPromotionOnHit(t *testing.T) {
	tr, dirs, _ := buildChain(t, 1)
	c := New(5)
	w, _ := tr.Create(dirs[0], "w")
	c.InsertPath(w, Auth, true)
	if _, ok := c.Get(w.ID); !ok {
		t.Fatal("warm entry not found")
	}
	// After promotion, adding warm entries and overflowing must evict
	// the new warm ones, not the promoted entry.
	for i := 0; i < 6; i++ {
		f, _ := tr.Create(dirs[0], fmt.Sprintf("z%d", i))
		c.InsertPath(f, Auth, true)
	}
	if !c.Contains(w.ID) {
		t.Fatal("promoted entry evicted before warm entries")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGetStats(t *testing.T) {
	_, _, f := buildChain(t, 1)
	c := New(10)
	if _, err := c.InsertPath(f, Auth, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(f.ID); !ok {
		t.Fatal("miss on present entry")
	}
	if _, ok := c.Get(namespace.InodeID(9999)); ok {
		t.Fatal("hit on absent entry")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestClassUpgradeAndPrefixFraction(t *testing.T) {
	tr, dirs, f := buildChain(t, 2)
	_ = tr
	c := New(10)
	c.InsertPath(f, Auth, false)
	// root, d0, d1 are Prefix; f is Auth.
	if got := c.classCount[Prefix]; got != 3 {
		t.Fatalf("prefix count = %d, want 3", got)
	}
	if got := c.PrefixFraction(); got != 0.75 {
		t.Fatalf("prefix fraction = %v, want 0.75", got)
	}
	// Direct request for d1 upgrades it to Auth.
	if _, err := c.Insert(dirs[1], Auth, false); err != nil {
		t.Fatal(err)
	}
	if got := c.classCount[Prefix]; got != 2 {
		t.Fatalf("prefix count after upgrade = %d, want 2", got)
	}
	// Downgrade attempts are ignored.
	if _, err := c.Insert(dirs[1], Prefix, false); err != nil {
		t.Fatal(err)
	}
	if e := c.lookup(dirs[1].ID); e.Class != Auth {
		t.Fatalf("class downgraded to %v", e.Class)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveAndRemoveSubtree(t *testing.T) {
	tr, dirs, f := buildChain(t, 3)
	c := New(100)
	c.InsertPath(f, Auth, false)
	g, _ := tr.Create(dirs[2], "g")
	c.InsertPath(g, Auth, false)

	if err := c.Remove(dirs[2].ID); err == nil {
		t.Fatal("removed pinned directory")
	}
	if err := c.Remove(f.ID); err != nil {
		t.Fatal(err)
	}
	if c.Contains(f.ID) {
		t.Fatal("removed entry still present")
	}
	// Remove whole subtree under d1.
	n := c.RemoveSubtree(dirs[1])
	if n == 0 {
		t.Fatal("subtree removal removed nothing")
	}
	if c.Contains(dirs[1].ID) || c.Contains(dirs[2].ID) || c.Contains(g.ID) {
		t.Fatal("subtree entries survived")
	}
	if !c.Contains(dirs[0].ID) {
		t.Fatal("entry outside subtree removed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Removing an absent id is a no-op.
	if err := c.Remove(namespace.InodeID(123456)); err != nil {
		t.Fatal(err)
	}
}

func TestOnEvictCallback(t *testing.T) {
	tr, dirs, _ := buildChain(t, 1)
	c := New(3)
	var evicted []namespace.InodeID
	c.OnEvict = func(e *Entry) { evicted = append(evicted, e.Ino.ID) }
	a, _ := tr.Create(dirs[0], "a")
	b, _ := tr.Create(dirs[0], "b")
	c.InsertPath(a, Auth, false)
	c.InsertPath(b, Auth, false) // capacity 3: root,d0,a full; b evicts a
	if len(evicted) != 1 || evicted[0] != a.ID {
		t.Fatalf("evicted = %v, want [a]", evicted)
	}
}

func TestPinBlockedOverflow(t *testing.T) {
	_, dirs, f := buildChain(t, 5)
	_ = dirs
	c := New(2)
	// Path chain longer than capacity: all entries pinned, cache must
	// overflow rather than break the tree invariant.
	if _, err := c.InsertPath(f, Auth, false); err != nil {
		t.Fatal(err)
	}
	if c.n <= 2 {
		t.Fatalf("len = %d, expected overflow beyond capacity", c.n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestForEachUnder: the walk under a root visits exactly the entries at
// or below it, in ForEach's order, and CountUnder counts them.
func TestForEachUnder(t *testing.T) {
	tr, dirs, f := buildChain(t, 2)
	c := New(100)
	c.InsertPath(f, Auth, false)
	g, _ := tr.Create(dirs[0], "g")
	c.InsertPath(g, Auth, false)
	for _, root := range []*namespace.Inode{dirs[1], tr.Root} {
		var want, got []*namespace.Inode
		c.ForEach(func(e *Entry) {
			if e.Ino == root || root.IsAncestorOf(e.Ino) {
				want = append(want, e.Ino)
			}
		})
		c.ForEachUnder(root, func(e *Entry) { got = append(got, e.Ino) })
		if !slices.Equal(got, want) || c.CountUnder(root) != len(want) {
			t.Fatalf("under %s: walk %v, count %d, want %v", root, got, c.CountUnder(root), want)
		}
	}
	if n := c.CountUnder(dirs[1]); n != 2 { // d1 and f
		t.Fatalf("entries under d1 = %d, want 2", n)
	}
	if n := c.CountUnder(tr.Root); n != c.n {
		t.Fatalf("entries under root = %d, want %d", n, c.n)
	}
}

// Property: random insert/get/remove traffic never violates cache
// invariants and never exceeds capacity by more than the longest pinned
// chain.
func TestCacheInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := emptyTree()
		var all []*namespace.Inode
		parent := tr.Root
		for i := 0; i < 8; i++ {
			d, _ := tr.Mkdir(parent, fmt.Sprintf("d%d", i))
			all = append(all, d)
			for j := 0; j < 6; j++ {
				fl, _ := tr.Create(d, fmt.Sprintf("f%d", j))
				all = append(all, fl)
			}
			if r.Intn(2) == 0 {
				parent = d
			}
		}
		c := New(12)
		for op := 0; op < 500; op++ {
			n := all[r.Intn(len(all))]
			switch r.Intn(4) {
			case 0, 1:
				if _, err := c.InsertPath(n, Auth, r.Intn(2) == 0); err != nil {
					return false
				}
			case 2:
				c.Get(n.ID)
			case 3:
				_ = c.Remove(n.ID) // may fail if pinned; fine
			}
			if c.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	if Auth.String() != "auth" || Prefix.String() != "prefix" || Replica.String() != "replica" {
		t.Fatal("class strings wrong")
	}
	if Class(9).String() != "unknown" {
		t.Fatal("unknown class string wrong")
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for capacity 0")
		}
	}()
	New(0)
}
