package fsgen

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
)

// Stats summarises a generated tree.
type Stats struct {
	Inodes, Files, Dirs int
	MaxDepth            int
	MeanDepth           float64
	MeanDirSize         float64 // children per directory (non-empty dirs)
}

// Describe computes summary statistics for a tree.
func Describe(t *namespace.Tree) Stats {
	var s Stats
	var depthSum, dirWithKids, kidSum int
	t.Walk(func(n *namespace.Inode) bool {
		s.Inodes++
		d := n.Depth()
		depthSum += d
		if d > s.MaxDepth {
			s.MaxDepth = d
		}
		if n.IsDir() {
			s.Dirs++
			if n.NumChildren() > 0 {
				dirWithKids++
				kidSum += n.NumChildren()
			}
		} else {
			s.Files++
		}
		return true
	})
	if s.Inodes > 0 {
		s.MeanDepth = float64(depthSum) / float64(s.Inodes)
	}
	if dirWithKids > 0 {
		s.MeanDirSize = float64(kidSum) / float64(dirWithKids)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("inodes=%d files=%d dirs=%d maxdepth=%d meandepth=%.2f meandirsize=%.2f",
		s.Inodes, s.Files, s.Dirs, s.MaxDepth, s.MeanDepth, s.MeanDirSize)
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Default()
	cfg.Users = 10
	fa, err := GenerateFrozen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := GenerateFrozen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fa.Thaw(), fb.Thaw()
	sa, sb := Describe(a.Tree), Describe(b.Tree)
	if sa != sb {
		t.Fatalf("same config produced different trees: %v vs %v", sa, sb)
	}
	// Deep determinism: identical path sets.
	paths := map[string]bool{}
	a.Tree.Walk(func(n *namespace.Inode) bool { paths[n.Path()] = true; return true })
	count := 0
	same := true
	b.Tree.Walk(func(n *namespace.Inode) bool {
		count++
		if !paths[n.Path()] {
			same = false
		}
		return true
	})
	if !same || count != len(paths) {
		t.Fatal("trees differ structurally")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := Default()
	cfg.Users = 20
	fz, err := GenerateFrozen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := fz.Thaw()
	if len(snap.Homes) != 20 {
		t.Fatalf("homes = %d, want 20", len(snap.Homes))
	}
	if len(snap.Projects) != cfg.Projects {
		t.Fatalf("projects = %d, want %d", len(snap.Projects), cfg.Projects)
	}
	if snap.System == nil {
		t.Fatal("no system tree")
	}
	st := Describe(snap.Tree)
	if st.Files == 0 || st.Dirs < 20 {
		t.Fatalf("degenerate tree: %v", st)
	}
	// Depth bound: homes are at depth 2, so max depth <= 2 + MaxDepth + 1
	// (one level of files below the deepest dir).
	if st.MaxDepth > 2+cfg.MaxDepth+1 {
		t.Fatalf("max depth %d exceeds bound", st.MaxDepth)
	}
	if err := snap.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := Default()
	cfg.Users = 10
	fa, _ := GenerateFrozen(cfg)
	cfg.Seed = 2
	fb, _ := GenerateFrozen(cfg)
	if Describe(fa.Thaw().Tree) == Describe(fb.Thaw().Tree) {
		t.Fatal("different seeds produced identical summary stats (suspicious)")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := Default()
	cfg.Users = 0
	if _, err := GenerateFrozen(cfg); err == nil {
		t.Fatal("accepted Users=0")
	}
}

func TestHomesAreDisjointSubtrees(t *testing.T) {
	cfg := Default()
	cfg.Users = 5
	fz, _ := GenerateFrozen(cfg)
	snap := fz.Thaw()
	for i, h := range snap.Homes {
		for j, g := range snap.Homes {
			if i != j && (h.IsAncestorOf(g) || g.IsAncestorOf(h)) {
				t.Fatalf("homes %d and %d overlap", i, j)
			}
		}
	}
}

// generateTreeOracle and growUserTreeOracle are the generator as it was
// when it grew a mutable tree — kept verbatim, over a tree grown on an
// empty base, as the reference the builder-backed generator must
// reproduce.
func generateTreeOracle(cfg Config) (*Snapshot, error) {
	if cfg.Users < 1 {
		return nil, fmt.Errorf("fsgen: Users must be >= 1, got %d", cfg.Users)
	}
	if cfg.MaxDepth < 1 {
		cfg.MaxDepth = 1
	}
	if cfg.FilesPerDirMax < 1 {
		cfg.FilesPerDirMax = 1
	}
	r := sim.NewStream(cfg.Seed, "fsgen")
	empty, _ := namespace.NewBuilder().Freeze()
	t := namespace.NewOverlay(empty)
	nm := newNamer()
	snap := &Snapshot{Tree: t}

	home, err := t.Mkdir(t.Root, "home")
	if err != nil {
		return nil, err
	}
	for u := 0; u < cfg.Users; u++ {
		h, err := t.Mkdir(home, nm.name("u", u, 4, ""))
		if err != nil {
			return nil, err
		}
		snap.Homes = append(snap.Homes, h)
		if err := growUserTreeOracle(t, r, h, cfg, nm); err != nil {
			return nil, err
		}
	}

	if cfg.SystemDirs > 0 {
		sys, err := t.Mkdir(t.Root, "usr")
		if err != nil {
			return nil, err
		}
		snap.System = sys
		dirs := []*namespace.Inode{sys}
		for d := 0; d < cfg.SystemDirs; d++ {
			parent := dirs[r.Pick(len(dirs))]
			if parent.Depth() >= cfg.MaxDepth {
				parent = sys
			}
			nd, err := t.Mkdir(parent, nm.name("s", d, 3, ""))
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, nd)
		}
		for _, d := range dirs {
			for f := 0; f < cfg.SystemFilesPerDir; f++ {
				if _, err := t.Create(d, nm.name("lib", f, 3, ".so")); err != nil {
					return nil, err
				}
			}
		}
	}

	if cfg.Projects > 0 {
		proj, err := t.Mkdir(t.Root, "proj")
		if err != nil {
			return nil, err
		}
		for p := 0; p < cfg.Projects; p++ {
			pd, err := t.Mkdir(proj, nm.name("p", p, 3, ""))
			if err != nil {
				return nil, err
			}
			snap.Projects = append(snap.Projects, pd)
			for f := 0; f < cfg.FilesPerProject; f++ {
				if _, err := t.Create(pd, nm.name("data", f, 5, "")); err != nil {
					return nil, err
				}
			}
		}
	}
	return snap, nil
}

func growUserTreeOracle(t *namespace.Tree, r *sim.RNG, h *namespace.Inode, cfg Config, nm *namer) error {
	dirs := []*namespace.Inode{h}
	baseDepth := h.Depth()
	for d := 0; d < cfg.DirsPerUser; d++ {
		parent := dirs[r.Pick(len(dirs))]
		if parent.Depth()-baseDepth >= cfg.MaxDepth {
			parent = h
		}
		nd, err := t.Mkdir(parent, nm.name("d", d, 3, ""))
		if err != nil {
			return err
		}
		dirs = append(dirs, nd)
	}
	for _, d := range dirs {
		nf := r.LogNormalInt(cfg.FilesPerDirMedian, cfg.FilesPerDirSigma, 0, cfg.FilesPerDirMax)
		for f := 0; f < nf; f++ {
			if _, err := t.Create(d, nm.name("f", f, 4, "")); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestGenerateMatchesTreeOracle: the builder-backed generator makes the
// same draws in the same order as the tree-growing one, so a thawed
// snapshot is that tree inode for inode — one home, the default shape,
// and a shape whose depth bound bites and that has no system or
// project trees.
func TestGenerateMatchesTreeOracle(t *testing.T) {
	one, deflt, shallow := Default(), Default(), Default()
	one.Users = 1
	deflt.Users = 40
	shallow.Users, shallow.DirsPerUser, shallow.MaxDepth = 12, 60, 2
	shallow.SystemDirs, shallow.Projects = 0, 0
	ids := func(ns []*namespace.Inode) []namespace.InodeID {
		out := make([]namespace.InodeID, len(ns))
		for i, n := range ns {
			out[i] = n.ID
		}
		return out
	}
	for _, cfg := range []Config{one, deflt, shallow} {
		for cfg.Seed = 1; cfg.Seed <= 3; cfg.Seed++ {
			want, err := generateTreeOracle(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fz, err := GenerateFrozen(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := fz.Thaw()
			if err := got.Tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got.Tree.Len() != want.Tree.Len() || got.Tree.NumFiles != want.Tree.NumFiles ||
				got.Tree.NumDirs != want.Tree.NumDirs || got.Tree.MaxID() != want.Tree.MaxID() {
				t.Fatalf("users %d seed %d: %v, oracle %v", cfg.Users, cfg.Seed, Describe(got.Tree), Describe(want.Tree))
			}
			for id := namespace.InodeID(1); id <= want.Tree.MaxID(); id++ {
				w, _ := want.Tree.ByID(id)
				g, ok := got.Tree.ByID(id)
				if !ok {
					t.Fatalf("users %d seed %d: inode %d missing", cfg.Users, cfg.Seed, id)
				}
				if g.Name() != w.Name() || g.Kind != w.Kind || g.Mode != w.Mode || got.Tree.Size(g) != want.Tree.Size(w) ||
					g.SubtreeInodes() != w.SubtreeInodes() ||
					(w.Parent() == nil) != (g.Parent() == nil) || (w.Parent() != nil && g.Parent().ID != w.Parent().ID) ||
					!reflect.DeepEqual(ids(g.Children()), ids(w.Children())) {
					t.Fatalf("users %d seed %d: inode %v, oracle %v", cfg.Users, cfg.Seed, g, w)
				}
			}
			if !reflect.DeepEqual(ids(got.Homes), ids(want.Homes)) || !reflect.DeepEqual(ids(got.Projects), ids(want.Projects)) ||
				(got.System == nil) != (want.System == nil) || (want.System != nil && got.System.ID != want.System.ID) {
				t.Fatalf("users %d seed %d: index lists differ", cfg.Users, cfg.Seed)
			}
		}
	}
}

// TestGenerateAllocBudget: generation allocates per builder chunk and
// per distinct name, not per inode or per directory — the tree-growing
// generator paid 1.88 mallocs an inode, the per-directory name maps 0.15.
func TestGenerateAllocBudget(t *testing.T) {
	cfg := Default()
	fs, err := GenerateFrozen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := GenerateFrozen(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perInode := allocs / float64(fs.Base.NumInodes()); perInode > 0.05 {
		t.Fatalf("GenerateFrozen: %.0f mallocs for %d inodes, %.3f an inode, budget 0.05",
			allocs, fs.Base.NumInodes(), perInode)
	}
}

// TestThawBytesPerInode: what the namespace keeps, per inode, at the
// benchmark's shape — the shared frozen base, and one run's overlay on
// top of it once every inode's popularity has been bumped, as a run's
// authoritative accesses do — and what a create costs once 8 land in
// every directory. An 80-byte inode (its tag record included, its size
// kept by the tree only when set), its share of the child-pointer array
// and of the directory records come to ~93 B, and the bumps add
// nothing; the next field added to Inode has to pay for itself. A
// create pays its inode, held by value in a 64-ID created page (84 B
// with the page's share of its size class), its moved-set slots and its
// share of the grown child slices (~118 B). The 122-B budget holds the
// inode to its page slot, the moved set to its table and the created
// set to its pages: an inode allocated alone and a pointer slot in its
// page cost ~4 B more, a Go map in place of the moved set ~46 B, a
// sorted slice of 16-byte created records regrown by append ~9 B, and
// a per-directory name index would add a map entry for every child of
// every directory a create lands in.
func TestThawBytesPerInode(t *testing.T) {
	cfg := Default()
	cfg.Users = 200
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	h0 := heap()
	fs, err := GenerateFrozen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h1 := heap()
	snap := fs.Thaw()
	var dirs []*namespace.Inode
	snap.Tree.Walk(func(n *namespace.Inode) bool {
		partition.Popularity(n).Add(sim.Second, partition.PopHalfLife, 1)
		if n.IsDir() {
			dirs = append(dirs, n)
		}
		return true
	})
	h2 := heap()
	names := [...]string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}
	for _, d := range dirs {
		for _, name := range names {
			if _, err := snap.Tree.Create(d, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	dirs = nil
	h3 := heap()
	n := float64(fs.Base.NumInodes())
	creates := float64(snap.Tree.Len()) - n
	base, overlay := (float64(h1)-float64(h0))/n, (float64(h2)-float64(h1))/n
	perCreate := (float64(h3) - float64(h2)) / creates
	t.Logf("%d inodes: base %.1f B/inode, touched overlay %.1f B/inode; %.0f creates, %.1f B/create",
		fs.Base.NumInodes(), base, overlay, creates, perCreate)
	if base > 48 || overlay > 96 || perCreate > 122 {
		t.Fatalf("%d inodes: base %.1f B/inode (budget 48), touched overlay %.1f B/inode (budget 96), %.1f B/create (budget 122)",
			fs.Base.NumInodes(), base, overlay, perCreate)
	}
	runtime.KeepAlive(snap)
}

// fig2LargestFS is the file-system scale of the biggest Figure 2 run
// (n=50 MDS nodes): the per-run setup cost the snapshot cache removes.
func fig2LargestFS() Config {
	cfg := Default()
	cfg.Users = 25 * 50
	cfg.Projects = 2 * 50
	return cfg
}

func BenchmarkGenerate(b *testing.B) {
	cfg := fig2LargestFS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateFrozen(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThaw(b *testing.B) {
	fs, err := GenerateFrozen(fig2LargestFS())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fs.Thaw()
	}
}

// BenchmarkOverlayChurn is the namespace's mutation kernel at the
// largest Figure 2 scale: thaw, create one file in every directory,
// unlink every fourth base file, move every eighth to another
// directory, then look up in every directory a name it holds and two
// it does not.
func BenchmarkOverlayChurn(b *testing.B) {
	fs, err := GenerateFrozen(fig2LargestFS())
	if err != nil {
		b.Fatal(err)
	}
	var dirs, files []namespace.InodeID
	var present []string
	fs.Thaw().Tree.Walk(func(n *namespace.Inode) bool {
		if !n.IsDir() {
			files = append(files, n.ID)
		} else if n.NumChildren() > 0 {
			dirs = append(dirs, n.ID)
			present = append(present, n.Child(0).Name())
		}
		return true
	})
	moved := make([]string, len(files))
	for k := range moved {
		moved[k] = fmt.Sprintf("moved%d", k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := fs.Thaw().Tree
		node := func(id namespace.InodeID) *namespace.Inode {
			n, ok := tr.ByID(id)
			if !ok {
				b.Fatalf("inode %d missing", id)
			}
			return n
		}
		for _, id := range dirs {
			if _, err := tr.Create(node(id), "new"); err != nil {
				b.Fatal(err)
			}
		}
		for k, id := range files {
			switch k % 8 {
			case 0, 4:
				err = tr.Remove(node(id))
			case 1:
				err = tr.Rename(node(id), node(dirs[k%len(dirs)]), moved[k])
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		for j, id := range dirs {
			d := node(id)
			d.LookupChild(present[j])
			d.LookupChild("new")
			d.LookupChild("absent")
		}
	}
}
