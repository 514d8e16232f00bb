package partition

import (
	"fmt"
	"testing"

	"dynmds/internal/namespace"
)

// homesTree builds /home/u0../u7, ten files in each home.
func homesTree(t *testing.T) (*namespace.Tree, []*namespace.Inode) {
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

func TestSubtreeStrategyFlags(t *testing.T) {
	tr, _ := homesTree(t)
	d := NewStaticSubtree(4, tr, 2)
	if !d.DirGranular() || !d.NeedsPathTraversal() || d.ClientComputable() {
		t.Fatal("flags wrong")
	}
	a := d.Authority(tr.Root)
	if a < 0 || a >= 4 {
		t.Fatalf("root authority = %d", a)
	}
	// Scattered inodes: the same partition, stored one by one.
	d.Scattered = true
	if d.DirGranular() || d.Authority(tr.Root) != a {
		t.Fatal("a scattered partition is still directory-granular, or moved")
	}
}

func TestSubtreeDirHashing(t *testing.T) {
	tr, homes := homesTree(t)
	d := NewStaticSubtree(4, tr, 2)
	d.HashDirAt = 8
	dir := homes[0] // has 10 children
	if !d.MaybeHashDir(dir) {
		t.Fatal("big directory not hashed")
	}
	if !TagsOf(dir).Has(namespace.HashedDir) {
		t.Fatal("hashed directory not tagged")
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
	if TagsOf(dir).Has(namespace.HashedDir) {
		t.Fatal("consolidated directory still tagged hashed")
	}
	// No-op: a partition that never hashes (the static comparator).
	d2 := NewStaticSubtree(4, tr, 2)
	if d2.MaybeHashDir(dir) {
		t.Fatal("hashing with disabled threshold")
	}
}
