package namespace

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func mustMkdir(t *testing.T, tr *Tree, parent *Inode, name string) *Inode {
	t.Helper()
	n, err := tr.Mkdir(parent, name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustCreate(t *testing.T, tr *Tree, parent *Inode, name string) *Inode {
	t.Helper()
	n, err := tr.Create(parent, name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestTreeBasics(t *testing.T) {
	tr := NewTree()
	home := mustMkdir(t, tr, tr.Root, "home")
	u1 := mustMkdir(t, tr, home, "u1")
	f := mustCreate(t, tr, u1, "notes.txt")

	if got := f.Path(); got != "/home/u1/notes.txt" {
		t.Errorf("Path = %q", got)
	}
	if got := tr.Root.Path(); got != "/" {
		t.Errorf("root Path = %q", got)
	}
	if f.Depth() != 3 || tr.Root.Depth() != 0 {
		t.Errorf("depths wrong: %d %d", f.Depth(), tr.Root.Depth())
	}
	if n, err := tr.Lookup("/home/u1/notes.txt"); err != nil || n != f {
		t.Errorf("Lookup: %v %v", n, err)
	}
	if _, err := tr.Lookup("/home/zz"); err == nil {
		t.Error("Lookup of missing path succeeded")
	}
	if _, err := tr.Lookup("relative"); err == nil {
		t.Error("relative lookup succeeded")
	}
	if tr.NumDirs != 3 || tr.NumFiles != 1 {
		t.Errorf("counts: dirs=%d files=%d", tr.NumDirs, tr.NumFiles)
	}
	if f.Parent() != u1 || home.Parent() != tr.Root || tr.Root.Parent() != nil {
		t.Error("Parent chain wrong")
	}
	if !home.IsAncestorOf(f) || f.IsAncestorOf(home) || home.IsAncestorOf(home) {
		t.Error("IsAncestorOf wrong")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeDuplicateAndInvalidNames(t *testing.T) {
	tr := NewTree()
	mustMkdir(t, tr, tr.Root, "a")
	if _, err := tr.Mkdir(tr.Root, "a"); err == nil {
		t.Error("duplicate mkdir succeeded")
	}
	if _, err := tr.Create(tr.Root, ""); err == nil {
		t.Error("empty name succeeded")
	}
	if _, err := tr.Create(tr.Root, "x/y"); err == nil {
		t.Error("slash in name succeeded")
	}
	f := mustCreate(t, tr, tr.Root, "f")
	if _, err := tr.Create(f, "under-file"); err == nil {
		t.Error("create under file succeeded")
	}
}

func TestSubtreeCounts(t *testing.T) {
	tr := NewTree()
	a := mustMkdir(t, tr, tr.Root, "a")
	b := mustMkdir(t, tr, a, "b")
	mustCreate(t, tr, b, "f1")
	mustCreate(t, tr, b, "f2")
	if a.SubtreeInodes != 4 {
		t.Errorf("a.SubtreeInodes = %d, want 4", a.SubtreeInodes)
	}
	if tr.Root.SubtreeInodes != 5 {
		t.Errorf("root.SubtreeInodes = %d, want 5", tr.Root.SubtreeInodes)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemove(t *testing.T) {
	tr := NewTree()
	a := mustMkdir(t, tr, tr.Root, "a")
	f := mustCreate(t, tr, a, "f")
	if err := tr.Remove(a); err == nil {
		t.Error("removed non-empty directory")
	}
	if err := tr.Remove(tr.Root); err == nil {
		t.Error("removed root")
	}
	if err := tr.Remove(f); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.ByID(f.ID); ok {
		t.Error("removed file still in byID")
	}
	if a.SubtreeInodes != 1 || tr.Root.SubtreeInodes != 2 {
		t.Errorf("counts after remove: %d %d", a.SubtreeInodes, tr.Root.SubtreeInodes)
	}
	if err := tr.Remove(a); err != nil {
		t.Fatal(err)
	}
	if tr.NumDirs != 1 || tr.NumFiles != 0 {
		t.Errorf("counts: dirs=%d files=%d", tr.NumDirs, tr.NumFiles)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRename(t *testing.T) {
	tr := NewTree()
	a := mustMkdir(t, tr, tr.Root, "a")
	b := mustMkdir(t, tr, tr.Root, "b")
	sub := mustMkdir(t, tr, a, "sub")
	mustCreate(t, tr, sub, "f")

	if err := tr.Rename(sub, b, "moved"); err != nil {
		t.Fatal(err)
	}
	if got := sub.Path(); got != "/b/moved" {
		t.Errorf("path after rename = %q", got)
	}
	if a.SubtreeInodes != 1 {
		t.Errorf("a count = %d, want 1", a.SubtreeInodes)
	}
	if b.SubtreeInodes != 3 {
		t.Errorf("b count = %d, want 3", b.SubtreeInodes)
	}
	// Moving a directory into its own subtree must fail.
	if err := tr.Rename(b, sub, "oops"); err == nil {
		t.Error("moved directory into own subtree")
	}
	if err := tr.Rename(tr.Root, b, "r"); err == nil {
		t.Error("renamed root")
	}
	// Name collision.
	mustCreate(t, tr, b, "taken")
	f2 := mustCreate(t, tr, a, "f2")
	if err := tr.Rename(f2, b, "taken"); err == nil {
		t.Error("rename onto existing name succeeded")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHardLinksAndAnchors(t *testing.T) {
	tr := NewTree()
	a := mustMkdir(t, tr, tr.Root, "a")
	b := mustMkdir(t, tr, tr.Root, "b")
	f := mustCreate(t, tr, a, "f")

	if err := tr.Link(a, b, "dirlink"); err == nil {
		t.Error("hard-linked a directory")
	}
	if err := tr.Link(f, b, "f2"); err != nil {
		t.Fatal(err)
	}
	if f.NLink != 2 {
		t.Errorf("NLink = %d, want 2", f.NLink)
	}
	if !tr.Anchors.Anchored(f.ID) {
		t.Error("multiply-linked inode not anchored")
	}
	chain, ok := tr.Anchors.Resolve(f.ID)
	if !ok || len(chain) == 0 || chain[0] != a.ID {
		t.Errorf("Resolve = %v %v, want chain starting at a", chain, ok)
	}
	// Singly-linked inodes stay out of the table.
	g := mustCreate(t, tr, a, "g")
	if tr.Anchors.Anchored(g.ID) {
		t.Error("singly-linked inode anchored")
	}
	// Moving the anchored file updates its anchor.
	if err := tr.Rename(f, b, "fmoved"); err != nil {
		t.Fatal(err)
	}
	chain, _ = tr.Anchors.Resolve(f.ID)
	if chain[0] != b.ID {
		t.Errorf("anchor after move = %v, want start %d", chain, b.ID)
	}
	// Unlink down to one link drops the anchor.
	if err := tr.Remove(f); err != nil {
		t.Fatal(err)
	}
	if f.NLink != 1 {
		t.Errorf("NLink after remove = %d, want 1", f.NLink)
	}
	if tr.Anchors.Anchored(f.ID) {
		t.Error("inode still anchored after dropping to one link")
	}
	if tr.Anchors.Len() != 0 {
		t.Errorf("anchor table len = %d, want 0", tr.Anchors.Len())
	}
}

func TestAnchorSharedPrefix(t *testing.T) {
	tr := NewTree()
	d := mustMkdir(t, tr, tr.Root, "d")
	sub1 := mustMkdir(t, tr, d, "s1")
	sub2 := mustMkdir(t, tr, d, "s2")
	other := mustMkdir(t, tr, tr.Root, "other")
	f1 := mustCreate(t, tr, sub1, "f1")
	f2 := mustCreate(t, tr, sub2, "f2")
	if err := tr.Link(f1, other, "l1"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Link(f2, other, "l2"); err != nil {
		t.Fatal(err)
	}
	// Both chains share /d; dropping one must keep the shared prefix.
	tr.Anchors.Drop(tr, f1)
	if !tr.Anchors.Anchored(f2.ID) {
		t.Fatal("f2 lost anchor")
	}
	chain, _ := tr.Anchors.Resolve(f2.ID)
	// chain should reach up through d.
	found := false
	for _, id := range chain {
		if id == d.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("chain %v does not include shared dir", chain)
	}
	tr.Anchors.Drop(tr, f2)
	if tr.Anchors.Len() != 0 {
		t.Errorf("anchor table not empty after drops: %d", tr.Anchors.Len())
	}
}

func TestWalkPrune(t *testing.T) {
	tr := NewTree()
	a := mustMkdir(t, tr, tr.Root, "a")
	mustCreate(t, tr, a, "f")
	b := mustMkdir(t, tr, tr.Root, "b")
	mustCreate(t, tr, b, "g")
	seen := 0
	tr.Walk(func(n *Inode) bool {
		seen++
		return n != a // prune under a
	})
	// root, a (pruned), b, g = 4
	if seen != 4 {
		t.Errorf("visited %d, want 4", seen)
	}
}

// Property: random mutation sequences preserve all tree invariants.
func TestTreeInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := NewTree()
		var dirs []*Inode
		var files []*Inode
		dirs = append(dirs, tr.Root)
		for i := 0; i < 300; i++ {
			switch r.Intn(6) {
			case 0, 1: // create file
				p := dirs[r.Intn(len(dirs))]
				if n, err := tr.Create(p, "f"+strconv.Itoa(i)); err == nil {
					files = append(files, n)
				}
			case 2: // mkdir
				p := dirs[r.Intn(len(dirs))]
				if n, err := tr.Mkdir(p, "d"+strconv.Itoa(i)); err == nil {
					dirs = append(dirs, n)
				}
			case 3: // remove a file
				if len(files) > 0 {
					j := r.Intn(len(files))
					n := files[j]
					if n.Parent() != nil {
						if err := tr.Remove(n); err == nil {
							files = append(files[:j], files[j+1:]...)
						}
					}
				}
			case 4: // rename
				if len(files) > 0 {
					n := files[r.Intn(len(files))]
					d := dirs[r.Intn(len(dirs))]
					if n.Parent() != nil {
						_ = tr.Rename(n, d, "r"+strconv.Itoa(i))
					}
				}
			case 5: // link
				if len(files) > 0 {
					n := files[r.Intn(len(files))]
					d := dirs[r.Intn(len(dirs))]
					if n.Parent() != nil {
						_ = tr.Link(n, d, "l"+strconv.Itoa(i))
					}
				}
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if File.String() != "file" || Dir.String() != "dir" {
		t.Error("Kind.String wrong")
	}
}
