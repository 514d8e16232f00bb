package fsgen

import (
	"fmt"
	"reflect"
	"testing"

	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Default()
	cfg.Users = 10
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	snap, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	a, _ := Generate(cfg)
	cfg.Seed = 2
	b, _ := Generate(cfg)
	if Describe(a.Tree) == Describe(b.Tree) {
		t.Fatal("different seeds produced identical summary stats (suspicious)")
	}
}

func TestScale(t *testing.T) {
	cfg := Default()
	s := cfg.Scale(2.0)
	if s.Users != cfg.Users*2 || s.Projects != cfg.Projects*2 {
		t.Fatalf("scale: %d/%d", s.Users, s.Projects)
	}
	tiny := cfg.Scale(0.0001)
	if tiny.Users < 1 || tiny.Projects < 1 {
		t.Fatal("scale floor broken")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := Default()
	cfg.Users = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("accepted Users=0")
	}
}

func TestHomesAreDisjointSubtrees(t *testing.T) {
	cfg := Default()
	cfg.Users = 5
	snap, _ := Generate(cfg)
	for i, h := range snap.Homes {
		for j, g := range snap.Homes {
			if i != j && (h.IsAncestorOf(g) || g.IsAncestorOf(h)) {
				t.Fatalf("homes %d and %d overlap", i, j)
			}
		}
	}
}

// generateTreeOracle and growUserTreeOracle are the generator as it was
// when it grew a mutable tree — kept verbatim, over a plain NewTree, as
// the reference the builder-backed generator must reproduce.
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
	t := namespace.NewTree()
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
			got, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
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
				if g.Name() != w.Name() || g.Kind != w.Kind || g.Mode != w.Mode || g.Size != w.Size ||
					g.NLink != w.NLink || g.SubtreeInodes != w.SubtreeInodes ||
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

// TestGenerateAllocBudget: generation allocates per directory (its name
// map) and per distinct name, not per inode — the tree-growing
// generator paid 1.88 mallocs an inode.
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
	if perInode := allocs / float64(fs.Base.NumInodes()); perInode > 0.3 {
		t.Fatalf("GenerateFrozen: %.0f mallocs for %d inodes, %.2f an inode, budget 0.3",
			allocs, fs.Base.NumInodes(), perInode)
	}
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
