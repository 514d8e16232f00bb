package namespace

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// emptyTree returns a tree holding only the root directory.
func emptyTree() *Tree {
	f, _ := NewBuilder().Freeze()
	return NewOverlay(f)
}

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
	tr := emptyTree()
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
	tr := emptyTree()
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
	tr := emptyTree()
	a := mustMkdir(t, tr, tr.Root, "a")
	b := mustMkdir(t, tr, a, "b")
	mustCreate(t, tr, b, "f1")
	mustCreate(t, tr, b, "f2")
	if a.SubtreeInodes() != 4 {
		t.Errorf("a.SubtreeInodes() = %d, want 4", a.SubtreeInodes())
	}
	if tr.Root.SubtreeInodes() != 5 {
		t.Errorf("root.SubtreeInodes() = %d, want 5", tr.Root.SubtreeInodes())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemove(t *testing.T) {
	tr := emptyTree()
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
	if a.SubtreeInodes() != 1 || tr.Root.SubtreeInodes() != 2 {
		t.Errorf("counts after remove: %d %d", a.SubtreeInodes(), tr.Root.SubtreeInodes())
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
	tr := emptyTree()
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
	if a.SubtreeInodes() != 1 {
		t.Errorf("a count = %d, want 1", a.SubtreeInodes())
	}
	if b.SubtreeInodes() != 3 {
		t.Errorf("b count = %d, want 3", b.SubtreeInodes())
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

func TestWalkPrune(t *testing.T) {
	tr := emptyTree()
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

// TestCheckInvariantsKindRecord: an inode has a directory record exactly
// when it is a directory.
func TestCheckInvariantsKindRecord(t *testing.T) {
	tr := emptyTree()
	d := mustMkdir(t, tr, tr.Root, "d")
	f := mustCreate(t, tr, tr.Root, "f")
	for _, n := range []*Inode{d, f} {
		kind := n.Kind
		if n.Kind = Dir; kind == Dir {
			n.Kind = File
		}
		err := tr.CheckInvariants()
		n.Kind = kind
		if err == nil || !strings.Contains(err.Error(), "directory record") {
			t.Errorf("%s with its kind flipped: err %v", n, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMkdirAllocsLikeCreate: a run-created directory is one allocation,
// inode and directory record together, as a file is.
func TestMkdirAllocsLikeCreate(t *testing.T) {
	tr := emptyTree()
	dir := mustMkdir(t, tr, tr.Root, "d")
	allocs := func(add func(*Inode, string) (*Inode, error)) float64 {
		return testing.AllocsPerRun(100, func() {
			n, err := add(dir, "x")
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Remove(n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if create, mkdir := allocs(tr.Create), allocs(tr.Mkdir); mkdir != create || create > 1 {
		t.Fatalf("Create+Remove takes %.0f mallocs, Mkdir+Remove %.0f; want equal and <= 1", create, mkdir)
	}
}

// Property: random mutation sequences preserve all tree invariants.
func TestTreeInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := emptyTree()
		var dirs []*Inode
		var files []*Inode
		dirs = append(dirs, tr.Root)
		for i := 0; i < 300; i++ {
			switch r.Intn(5) {
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
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCreatedResolvesLiveOnly: with IDs spent on refused creates and
// run-created files removed at random, ByID resolves exactly the live
// run-created inodes, and created holds exactly the pages they span
// (plus at most the tail page, where the next IDs land), however many
// IDs the run has spent.
func TestCreatedResolvesLiveOnly(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr := emptyTree()
	ref := map[InodeID]*Inode{}
	var live []*Inode
	for step := 0; step < 3000; step++ {
		if len(live) > 0 && r.Intn(2) == 0 {
			i := r.Intn(len(live))
			if err := tr.Remove(live[i]); err != nil {
				t.Fatal(err)
			}
			ref[live[i].ID] = nil
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		// One name in three is taken already: the refusal spends an ID.
		if n, err := tr.Create(tr.Root, "f"+strconv.Itoa(r.Intn(3*len(live)+1))); err == nil {
			ref[n.ID] = n
			live = append(live, n)
		}
		if step%100 != 99 {
			continue
		}
		for id := InodeID(2); id <= tr.MaxID()+1; id++ {
			if got, _ := tr.ByID(id); got != ref[id] {
				t.Fatalf("step %d: ByID(%d) = %v, want %v", step, id, got, ref[id])
			}
		}
		checkPages(t, tr, live, "step "+strconv.Itoa(step))
	}
	if tr.MaxID() < InodeID(len(live)+1000) {
		t.Fatalf("only %d IDs spent for %d live inodes: too few removals or refusals to test", tr.MaxID(), len(live))
	}
}

// checkPages holds created to exact page accounting: its pages ascend,
// each but the tail holds a live inode, and every page a live inode
// falls in is held.
func checkPages(t *testing.T, tr *Tree, live []*Inode, what string) {
	t.Helper()
	keys := map[InodeID]bool{}
	for _, n := range live {
		keys[n.ID/pageIDs] = true
	}
	pages := tr.created.pages
	for i, p := range pages {
		if i > 0 && p.key <= pages[i-1].key {
			t.Fatalf("%s: page %d follows page %d", what, p.key, pages[i-1].key)
		}
		if !keys[p.key] && i < len(pages)-1 {
			t.Fatalf("%s: page %d of %d holds no live inode", what, i, len(pages))
		}
		delete(keys, p.key)
	}
	if len(keys) != 0 {
		t.Fatalf("%s: %d pages of live inodes not held", what, len(keys))
	}
}

// TestCreatedFIFOChurnPages: a backlog of ~3k files created and unlinked
// oldest first, as the open loop's churn ring does, over 100k creates.
// The live IDs slide forward; created keeps only the pages they span,
// not the pages of every ID spent.
func TestCreatedFIFOChurnPages(t *testing.T) {
	const backlog, creates = 3000, 100000
	tr := emptyTree()
	var fifo []*Inode
	for i := 0; i < creates; i++ {
		fifo = append(fifo, mustCreate(t, tr, tr.Root, "f"+strconv.Itoa(i)))
		if len(fifo) > backlog {
			if err := tr.Remove(fifo[0]); err != nil {
				t.Fatal(err)
			}
			fifo = fifo[1:]
		}
		if held := len(tr.created.pages); held > len(fifo)/pageIDs+3 {
			t.Fatalf("create %d: %d pages held for %d live inodes", i, held, len(fifo))
		}
	}
	checkPages(t, tr, fifo, "end")
	if n, ok := tr.ByID(fifo[0].ID); !ok || n != fifo[0] || tr.Len() != backlog+1 {
		t.Fatalf("oldest live inode resolves %v, %d live inodes", ok, tr.Len())
	}
}

func TestKindString(t *testing.T) {
	if File.String() != "file" || Dir.String() != "dir" {
		t.Error("Kind.String wrong")
	}
}
