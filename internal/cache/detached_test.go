package cache

import (
	"fmt"
	"testing"

	"dynmds/internal/namespace"
)

func TestInsertDetached(t *testing.T) {
	tr := emptyTree()
	d, _ := tr.Mkdir(tr.Root, "d")
	f, _ := tr.Create(d, "f")
	c := New(10)
	e := c.InsertDetached(f, Auth, false)
	if e == nil || !c.Contains(f.ID) {
		t.Fatal("detached insert failed")
	}
	// Parent is NOT cached and that's fine.
	if c.Contains(d.ID) {
		t.Fatal("parent unexpectedly cached")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Re-insert refreshes.
	if c.InsertDetached(f, Auth, false) != e {
		t.Fatal("re-insert created new entry")
	}
}

func TestDetachedDoesNotUnpinParent(t *testing.T) {
	tr := emptyTree()
	d, _ := tr.Mkdir(tr.Root, "d")
	f, _ := tr.Create(d, "f")
	g, _ := tr.Create(d, "g")
	c := New(100)
	// g cached attached (pins d); f cached detached (does not pin d).
	if _, err := c.InsertPath(g, Auth, false); err != nil {
		t.Fatal(err)
	}
	c.InsertDetached(f, Auth, false)
	if c.lookup(d.ID).pins == 0 {
		t.Fatal("d should be pinned by g")
	}
	// Dropping the detached entry must not unpin d.
	if err := c.Remove(f.ID); err != nil {
		t.Fatal(err)
	}
	if c.lookup(d.ID).pins == 0 {
		t.Fatal("detached removal unpinned parent")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDetachedEvictsNormally(t *testing.T) {
	tr := emptyTree()
	d, _ := tr.Mkdir(tr.Root, "d")
	c := New(3)
	var files []*namespace.Inode
	for i := 0; i < 6; i++ {
		f, _ := tr.Create(d, fmt.Sprintf("f%d", i))
		files = append(files, f)
		c.InsertDetached(f, Auth, false)
	}
	if c.n != 3 {
		t.Fatalf("len = %d", c.n)
	}
	if c.Contains(files[0].ID) || !c.Contains(files[5].ID) {
		t.Fatal("LRU order wrong for detached entries")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
