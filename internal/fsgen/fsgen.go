// Package fsgen generates synthetic file-system snapshots for the
// simulator. The paper ran its simulations against snapshots of actual
// file systems — "a large collection of home directories" — which are not
// available; this generator produces a namespace with the same shape:
// many user home directories with nested project directories, log-normal
// files-per-directory counts, a system tree, and a set of shared
// scientific project directories. Generation is deterministic for a
// given Config (including Seed).
package fsgen

import (
	"fmt"

	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

// Config parameterises snapshot generation.
type Config struct {
	Seed int64

	// Users is the number of home directories under /home.
	Users int
	// DirsPerUser is the number of nested directories created inside
	// each home directory (in addition to the home itself).
	DirsPerUser int
	// MaxDepth bounds directory nesting below a home directory.
	MaxDepth int
	// FilesPerDirMedian/Sigma parameterise the log-normal distribution
	// of files per directory. Trace studies consistently find a long
	// tail: most directories are small, a few are very large.
	FilesPerDirMedian float64
	FilesPerDirSigma  float64
	// FilesPerDirMax caps pathological draws.
	FilesPerDirMax int

	// SystemDirs and SystemFilesPerDir shape the /usr-like system tree
	// that every client occasionally touches (shared, read-mostly).
	SystemDirs        int
	SystemFilesPerDir int

	// Projects is the number of shared directories under /proj used by
	// the scientific workload (all clients in a job touch one project).
	Projects        int
	FilesPerProject int
}

// Default returns a small but realistically shaped configuration.
func Default() Config {
	return Config{
		Seed:              1,
		Users:             100,
		DirsPerUser:       20,
		MaxDepth:          6,
		FilesPerDirMedian: 6,
		FilesPerDirSigma:  1.2,
		FilesPerDirMax:    500,
		SystemDirs:        50,
		SystemFilesPerDir: 20,
		Projects:          10,
		FilesPerProject:   100,
	}
}

// Scale returns a copy of c with user/project counts multiplied by f,
// used by experiments that grow the file system with the cluster.
func (c Config) Scale(f float64) Config {
	s := c
	s.Users = max(1, int(float64(c.Users)*f))
	s.Projects = max(1, int(float64(c.Projects)*f))
	return s
}

// Snapshot is a generated namespace plus the index lists workload
// generators draw from.
type Snapshot struct {
	Tree *namespace.Tree
	// Homes[i] is user i's home directory.
	Homes []*namespace.Inode
	// Projects[i] is shared project directory i.
	Projects []*namespace.Inode
	// System is the root of the shared system tree.
	System *namespace.Inode
}

// FrozenSnapshot is an immutable, shareable form of Snapshot: the tree
// frozen into flat arrays (namespace.Frozen) plus the workload index
// lists demoted to inode IDs. One FrozenSnapshot may back any number of
// concurrent simulation runs; each run calls Thaw to get a private
// copy-on-write view. Everything here is read-only after GenerateFrozen
// returns.
type FrozenSnapshot struct {
	Base       *namespace.Frozen
	HomeIDs    []namespace.InodeID
	ProjectIDs []namespace.InodeID
	SystemID   namespace.InodeID // 0 when the config has no system tree
}

// Thaw layers a private copy-on-write overlay over the shared base and
// re-resolves the workload index lists against it. The result behaves
// exactly like a freshly Generated snapshot; mutations stay private to
// this overlay. Safe to call concurrently on one FrozenSnapshot.
func (fs *FrozenSnapshot) Thaw() *Snapshot {
	t := namespace.NewOverlay(fs.Base)
	snap := &Snapshot{
		Tree:     t,
		Homes:    make([]*namespace.Inode, len(fs.HomeIDs)),
		Projects: make([]*namespace.Inode, len(fs.ProjectIDs)),
	}
	resolve := func(id namespace.InodeID) *namespace.Inode {
		n, ok := t.ByID(id)
		if !ok {
			panic(fmt.Sprintf("fsgen: frozen snapshot index inode %d missing", id))
		}
		return n
	}
	for i, id := range fs.HomeIDs {
		snap.Homes[i] = resolve(id)
	}
	for i, id := range fs.ProjectIDs {
		snap.Projects[i] = resolve(id)
	}
	if fs.SystemID != 0 {
		snap.System = resolve(fs.SystemID)
	}
	return snap
}

// namer formats the generator's numbered names ("u0042", "lib003.so")
// into a scratch buffer — no fmt — and interns the result: generated
// trees repeat a small set of names ("f0000" exists under every user),
// so one string per distinct name removes the bulk of generation-time
// allocation.
type namer struct {
	seen map[string]string
	buf  []byte
}

func newNamer() *namer { return &namer{seen: make(map[string]string)} }

func (nm *namer) name(prefix string, n, width int, suffix string) string {
	b := append(nm.buf[:0], prefix...)
	b = appendPadded(b, n, width)
	b = append(b, suffix...)
	nm.buf = b
	// A lookup keyed by a converted []byte does not copy, so only the
	// first sighting of a name pays for its string.
	if s, ok := nm.seen[string(b)]; ok {
		return s
	}
	s := string(b)
	nm.seen[s] = s
	return s
}

// appendPadded appends n in decimal, zero-padded to width (wider
// numbers keep all their digits, matching fmt's %0*d).
func appendPadded(b []byte, n, width int) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	for len(tmp)-i < width {
		i--
		tmp[i] = '0'
	}
	return append(b, tmp[i:]...)
}

// Generate builds a snapshot from the configuration and thaws a private
// view of it.
func Generate(cfg Config) (*Snapshot, error) {
	fs, err := GenerateFrozen(cfg)
	if err != nil {
		return nil, err
	}
	return fs.Thaw(), nil
}

// GenerateFrozen builds a snapshot in its frozen, shareable form. The
// namespace is written once, through a namespace.Builder; no mutable
// tree exists until a run thaws one.
func GenerateFrozen(cfg Config) (*FrozenSnapshot, error) {
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
	b := namespace.NewBuilder()
	nm := newNamer()
	fs := &FrozenSnapshot{}

	home := b.Mkdir(b.Root(), "home")
	for u := 0; u < cfg.Users; u++ {
		h := b.Mkdir(home, nm.name("u", u, 4, ""))
		fs.HomeIDs = append(fs.HomeIDs, h)
		growUserTree(b, r, h, cfg, nm)
	}

	if cfg.SystemDirs > 0 {
		sys := b.Mkdir(b.Root(), "usr")
		fs.SystemID = sys
		dirs := []namespace.InodeID{sys}
		for d := 0; d < cfg.SystemDirs; d++ {
			parent := dirs[r.Pick(len(dirs))]
			if b.Depth(parent) >= cfg.MaxDepth {
				parent = sys
			}
			dirs = append(dirs, b.Mkdir(parent, nm.name("s", d, 3, "")))
		}
		for _, d := range dirs {
			for f := 0; f < cfg.SystemFilesPerDir; f++ {
				b.Create(d, nm.name("lib", f, 3, ".so"))
			}
		}
	}

	if cfg.Projects > 0 {
		proj := b.Mkdir(b.Root(), "proj")
		for p := 0; p < cfg.Projects; p++ {
			pd := b.Mkdir(proj, nm.name("p", p, 3, ""))
			fs.ProjectIDs = append(fs.ProjectIDs, pd)
			for f := 0; f < cfg.FilesPerProject; f++ {
				b.Create(pd, nm.name("data", f, 5, ""))
			}
		}
	}
	// A refused Mkdir or Create sticks in the builder and comes out here.
	var err error
	if fs.Base, err = b.Freeze(); err != nil {
		return nil, err
	}
	return fs, nil
}

// growUserTree creates the nested directory structure and files beneath
// one home directory.
func growUserTree(b *namespace.Builder, r *sim.RNG, h namespace.InodeID, cfg Config, nm *namer) {
	dirs := []namespace.InodeID{h}
	baseDepth := b.Depth(h)
	for d := 0; d < cfg.DirsPerUser; d++ {
		parent := dirs[r.Pick(len(dirs))]
		if b.Depth(parent)-baseDepth >= cfg.MaxDepth {
			parent = h
		}
		dirs = append(dirs, b.Mkdir(parent, nm.name("d", d, 3, "")))
	}
	for _, d := range dirs {
		nf := r.LogNormalInt(cfg.FilesPerDirMedian, cfg.FilesPerDirSigma, 0, cfg.FilesPerDirMax)
		for f := 0; f < nf; f++ {
			b.Create(d, nm.name("f", f, 4, ""))
		}
	}
}

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
