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

// TestMkdirAllocsLikeCreate: a run-created inode takes the slot of its
// ID in a 64-ID page and a directory's record comes from a slab, so a
// create and a mkdir, each removed again, average under one malloc.
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
	if create, mkdir := allocs(tr.Create), allocs(tr.Mkdir); create != 0 || mkdir != 0 {
		t.Fatalf("Create+Remove takes %.0f mallocs, Mkdir+Remove %.0f; want 0", create, mkdir)
	}
}

// TestCreateAllocsPerPage: once a directory's child list, the moved set
// and the page list have grown, 64·k file creates from a page boundary
// cost exactly 2k mallocs, a page and its name block each (names of one
// length: the page's first sizes the block for all 64), and unlinking
// them costs none.
func TestCreateAllocsPerPage(t *testing.T) {
	const k = 8
	tr := emptyTree()
	dir := mustMkdir(t, tr, tr.Root, "d")
	for (tr.MaxID()+1)%pageIDs != 0 {
		if _, err := tr.Create(tr.Root, "d"); err == nil {
			t.Fatal("a taken name was created")
		}
	}
	names := make([]string, k*pageIDs)
	for i := range names {
		names[i] = "f" + strconv.Itoa(1000+i)
	}
	made := make([]*Inode, len(names))
	allocs := testing.AllocsPerRun(3, func() {
		if (tr.MaxID()+1)%pageIDs != 0 {
			t.Fatalf("next ID %d is not on a page boundary", tr.MaxID()+1)
		}
		for i, name := range names {
			made[i] = mustCreate(t, tr, dir, name)
		}
		for _, n := range made {
			if err := tr.Remove(n); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 2*k {
		t.Fatalf("%d creates and unlinks took %.0f mallocs, want %d", len(names), allocs, 2*k)
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

// TestCreatedMemoryNeverReused: run-created inodes live by value in
// their pages, so no page or slot may be handed out twice. Files and
// directories are created and removed newest first in bursts that empty
// the tail page, refused creates spend IDs past its end, and the tree is
// restored from its checkpoint midway and churned on; every pointer ever
// handed out is kept. No two inodes share an address, a stale pointer
// still reads its own ID, and only the live ones resolve.
func TestCreatedMemoryNeverReused(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	type held struct {
		n  *Inode
		id InodeID
	}
	var all []held
	seen := map[*Inode]InodeID{}
	take := func(n *Inode) {
		if id, ok := seen[n]; ok {
			t.Fatalf("inode %d at the address inode %d had", n.ID, id)
		}
		seen[n] = n.ID
		all = append(all, held{n, n.ID})
	}
	emptied := 0
	churn := func(tr *Tree, live []*Inode) []*Inode {
		for step := 0; step < 4000; step++ {
			switch op := r.Intn(10); {
			case op < 6:
				var dirs []*Inode
				for _, n := range live {
					if n.IsDir() {
						dirs = append(dirs, n)
					}
				}
				parent := tr.Root
				if len(dirs) > 0 && r.Intn(2) == 0 {
					parent = dirs[r.Intn(len(dirs))]
				}
				add := tr.Create
				if op == 0 {
					add = tr.Mkdir
				}
				if n, err := add(parent, "n"+strconv.Itoa(step)); err == nil {
					take(n)
					live = append(live, n)
				}
			case op < 8:
				for i := r.Intn(100); i > 0; i-- {
					if _, err := tr.Create(tr.Root, "taken"); err == nil {
						t.Fatal("a taken name was created")
					}
				}
			default:
				for i := r.Intn(len(live) + 1); i > 0; i-- {
					n := live[len(live)-1]
					if tr.Remove(n) != nil {
						break // a directory with children
					}
					live = live[:len(live)-1]
				}
				if p := tr.created.pages; len(p) > 0 && p[len(p)-1].live == 0 {
					emptied++
				}
			}
		}
		return live
	}
	check := func(tr *Tree, live []*Inode, what string) {
		isLive := map[*Inode]bool{}
		for _, n := range live {
			isLive[n] = true
			if got, _ := tr.ByID(n.ID); got != n {
				t.Fatalf("%s: live inode %d resolves to %v", what, n.ID, got)
			}
		}
		for _, h := range all {
			if h.n.ID != h.id {
				t.Fatalf("%s: the inode made as %d reads ID %d", what, h.id, h.n.ID)
			}
			if got, ok := tr.ByID(h.id); ok && !isLive[got] {
				t.Fatalf("%s: dead inode %d resolves", what, h.id)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	f, _ := NewBuilder().Freeze()
	tr := NewOverlay(f)
	if _, err := tr.Create(tr.Root, "taken"); err != nil {
		t.Fatal(err)
	}
	live := churn(tr, nil)
	check(tr, live, "first run")
	got, err := restoreOf(t, tr, f)
	if err != nil {
		t.Fatal(err)
	}
	restored := make([]*Inode, len(live))
	for i, n := range live {
		c, ok := got.ByID(n.ID)
		if !ok {
			t.Fatalf("live inode %d lost in the restore", n.ID)
		}
		take(c)
		restored[i] = c
	}
	check(tr, live, "first run after the restore")
	check(got, churn(got, restored), "restored run")
	if emptied < 10 || tr.MaxID() < InodeID(len(all))+1000 {
		t.Fatalf("history too tame: %d emptied tail pages, %d IDs for %d inodes", emptied, tr.MaxID(), len(all))
	}
}
