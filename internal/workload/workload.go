// Package workload generates synthetic client metadata operation
// streams. Three families, matching the paper's evaluation (§5.2):
//
//   - General-purpose: op mix modelled on the trace study the paper
//     cites (stat-dominated; open/close pairs; readdir followed by
//     stats; occasional creates/unlinks; rare directory permission
//     changes and renames), with per-client locality of reference
//     inside a home-directory region and occasional excursions to
//     shared system files.
//
//   - Scientific: synchronized bursts in which every client of a job
//     opens the same file (N-to-1) or creates files in the same
//     directory (N-to-N), modelled on the LLNL trace analysis.
//
//   - Scenario wrappers: a workload shift for the dynamic-balancing
//     experiment (Figures 5/6) and a flash crowd for the
//     traffic-control experiment (Figure 7).
package workload

import (
	"strconv"

	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

// Op is one generated metadata operation.
type Op struct {
	Op      msg.Op
	Target  *namespace.Inode
	DstDir  *namespace.Inode
	NewName string
	// Size is the new file size for Write ops.
	Size int64
}

// Generator produces one client's operation stream.
type Generator interface {
	// Next returns the next operation. ok=false means the generator
	// has nothing right now (the client retries shortly).
	Next(now sim.Time, r *sim.RNG) (Op, bool)
}

// Mix holds relative op-type weights for the general workload.
type Mix struct {
	Stat, Open, Readdir, Create, Unlink, Mkdir, Chmod, Rename float64
}

// DefaultMix approximates the metadata op mix of general-purpose trace
// studies; open is always followed by a close (issued as a separate op),
// and readdir is followed by a run of stats, so the effective mix is
// richer than the raw weights.
func DefaultMix() Mix {
	return Mix{
		Stat:    42,
		Open:    22,
		Readdir: 4,
		Create:  5,
		Unlink:  3,
		Mkdir:   0.7,
		Chmod:   0.8,
		Rename:  0.4,
	}
}

func (m Mix) total() float64 {
	return m.Stat + m.Open + m.Readdir + m.Create + m.Unlink + m.Mkdir + m.Chmod + m.Rename
}

// GeneralConfig parameterises the general-purpose generator.
type GeneralConfig struct {
	Mix Mix
	// PMove is the chance per op of moving the working directory one
	// step (descend into a child directory or ascend) — the locality
	// random walk.
	PMove float64
	// PJump is the chance of jumping to a random directory within the
	// client's region.
	PJump float64
	// PShared is the chance of targeting the shared system tree or a
	// project directory instead of the client's own region.
	PShared float64
	// PDirChmod is the fraction of chmods aimed at directories rather
	// than files (the Lazy Hybrid stress knob).
	PDirChmod float64
	// PDirRename likewise for renames.
	PDirRename float64
	// ReaddirStats bounds the run of stats issued after a readdir.
	ReaddirStats int
}

// DefaultGeneralConfig returns the configuration used by experiments.
func DefaultGeneralConfig() GeneralConfig {
	return GeneralConfig{
		Mix:          DefaultMix(),
		PMove:        0.08,
		PJump:        0.02,
		PShared:      0.08,
		PDirChmod:    0.05,
		PDirRename:   0.05,
		ReaddirStats: 8,
	}
}

// Region is the part of the namespace a client works in plus the shared
// areas it occasionally touches.
type Region struct {
	// Home is the client's private working subtree.
	Home *namespace.Inode
	// Shared lists directories (system tree, projects, other homes)
	// for non-local accesses.
	Shared []*namespace.Inode
}

// General is the general-purpose per-client generator.
type General struct {
	cfg    GeneralConfig
	region Region
	cur    *namespace.Inode
	queue  []Op
	seq    int
	client int
	// names holds the names the generator issues, its scenario's too
	// (see name).
	names namespace.Names
}

// NewGeneral creates a generator working in the given region.
func NewGeneral(client int, cfg GeneralConfig, region Region) *General {
	return &General{cfg: cfg, region: region, cur: region.Home, client: client}
}

// SetRegion moves the client's activity to a new home subtree.
func (g *General) SetRegion(home *namespace.Inode) {
	g.region.Home = home
	g.cur = home
}

// Next implements Generator.
func (g *General) Next(now sim.Time, r *sim.RNG) (Op, bool) {
	if len(g.queue) > 0 {
		op := g.queue[0]
		copy(g.queue, g.queue[1:])
		g.queue = g.queue[:len(g.queue)-1]
		if valid(op) {
			return op, true
		}
		return g.Next(now, r)
	}
	g.wander(r)

	dir := g.cur
	if r.Float64() < g.cfg.PShared && len(g.region.Shared) > 0 {
		dir = g.region.Shared[r.Pick(len(g.region.Shared))]
		// Walk down to a random directory beneath the shared root.
		dir = descend(dir, r, 2)
	}
	if dir == nil || dir.Parent() == nil && dir.NumChildren() == 0 {
		return Op{}, false
	}

	m := g.cfg.Mix
	x := r.Float64() * m.total()
	switch {
	case x < m.Stat:
		if f := pickFile(dir, r); f != nil {
			return Op{Op: msg.Stat, Target: f}, true
		}
		return Op{Op: msg.Stat, Target: dir}, true
	case x < m.Stat+m.Open:
		f := pickFile(dir, r)
		if f == nil {
			return Op{Op: msg.Stat, Target: dir}, true
		}
		// The ubiquitous open-then-close pair.
		g.queue = append(g.queue, Op{Op: msg.Close, Target: f})
		return Op{Op: msg.Open, Target: f}, true
	case x < m.Stat+m.Open+m.Readdir:
		// readdir followed by a run of stats.
		n := dir.NumChildren()
		if n > g.cfg.ReaddirStats {
			n = g.cfg.ReaddirStats
		}
		for i := 0; i < n; i++ {
			g.queue = append(g.queue, Op{Op: msg.Stat, Target: dir.Child(r.Pick(dir.NumChildren()))})
		}
		return Op{Op: msg.Readdir, Target: dir}, true
	case x < m.Stat+m.Open+m.Readdir+m.Create:
		g.seq++
		return Op{Op: msg.Create, Target: dir, NewName: g.name("c", g.client, g.seq)}, true
	case x < m.Stat+m.Open+m.Readdir+m.Create+m.Unlink:
		if f := pickFile(dir, r); f != nil {
			return Op{Op: msg.Unlink, Target: f}, true
		}
		return Op{Op: msg.Stat, Target: dir}, true
	case x < m.Stat+m.Open+m.Readdir+m.Create+m.Unlink+m.Mkdir:
		g.seq++
		return Op{Op: msg.Mkdir, Target: dir, NewName: g.name("d", g.client, g.seq)}, true
	case x < m.Stat+m.Open+m.Readdir+m.Create+m.Unlink+m.Mkdir+m.Chmod:
		if r.Float64() < g.cfg.PDirChmod {
			return Op{Op: msg.Chmod, Target: dir}, true
		}
		if f := pickFile(dir, r); f != nil {
			return Op{Op: msg.Chmod, Target: f}, true
		}
		return Op{Op: msg.Chmod, Target: dir}, true
	default: // rename
		if r.Float64() < g.cfg.PDirRename {
			if d := pickDir(dir, r); d != nil {
				g.seq++
				return Op{Op: msg.Rename, Target: d, DstDir: dir, NewName: g.name("r", g.client, g.seq)}, true
			}
		}
		if f := pickFile(dir, r); f != nil {
			g.seq++
			return Op{Op: msg.Rename, Target: f, DstDir: dir, NewName: g.name("r", g.client, g.seq)}, true
		}
		return Op{Op: msg.Stat, Target: dir}, true
	}
}

// name writes a new entry's name, the prefix then the numbers joined
// by '_' ("c12_345"), into the generator's name blocks: a name costs
// no malloc of its own, the tree keeps a copy, and a block is held only
// by requests still carrying one of its names.
func (g *General) name(prefix string, nums ...int) string {
	var buf [40]byte
	return g.names.Add(appendName(buf[:0], prefix, nums...))
}

// appendName appends prefix and the numbers joined by '_' to b, with
// strconv instead of fmt: the one way a generator spells a name, for an
// entry it creates and for one it looks up.
func appendName(b []byte, prefix string, nums ...int) []byte {
	b = append(b, prefix...)
	for i, v := range nums {
		if i > 0 {
			b = append(b, '_')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// wander implements the locality random walk within the region.
func (g *General) wander(r *sim.RNG) {
	if g.cur == nil || g.cur.Parent() == nil && g.cur != g.region.Home {
		g.cur = g.region.Home // current dir was unlinked or moved away
	}
	if !inRegion(g.cur, g.region.Home) {
		g.cur = g.region.Home
	}
	if r.Float64() < g.cfg.PJump {
		if d := descend(g.region.Home, r, 8); d != nil {
			g.cur = d
		}
		return
	}
	if r.Float64() >= g.cfg.PMove {
		return
	}
	// One random-walk step: descend into a child dir or ascend.
	dirs := countDirs(g.cur)
	up := g.cur != g.region.Home && g.cur.Parent() != nil
	n := dirs
	if up {
		n++
	}
	if n == 0 {
		return
	}
	i := r.Pick(n)
	if i == dirs {
		g.cur = g.cur.Parent()
	} else {
		g.cur = kthDir(g.cur, i)
	}
}

// countDirs returns how many of dir's children are directories, and
// kthDir the k'th of them in child order: a uniform pick among the
// sub-directories is Pick(countDirs) then kthDir, two passes over the
// children in place of a list of them built per step.
func countDirs(dir *namespace.Inode) int {
	n := 0
	for _, c := range dir.Children() {
		if c.IsDir() {
			n++
		}
	}
	return n
}

func kthDir(dir *namespace.Inode, k int) *namespace.Inode {
	for _, c := range dir.Children() {
		if c.IsDir() {
			if k == 0 {
				return c
			}
			k--
		}
	}
	panic("workload: kthDir past the last sub-directory")
}

func inRegion(n, home *namespace.Inode) bool {
	if home == nil {
		return false
	}
	return n == home || home.IsAncestorOf(n)
}

// descend walks down from root through random directory children for up
// to maxSteps, returning the directory reached.
func descend(root *namespace.Inode, r *sim.RNG, maxSteps int) *namespace.Inode {
	cur := root
	for s := 0; s < maxSteps; s++ {
		dirs := countDirs(cur)
		if dirs == 0 || r.Float64() < 0.4 {
			break
		}
		cur = kthDir(cur, r.Pick(dirs))
	}
	return cur
}

// pickFile selects a random file child, or nil.
func pickFile(dir *namespace.Inode, r *sim.RNG) *namespace.Inode {
	n := dir.NumChildren()
	if n == 0 {
		return nil
	}
	// A few probes rather than a filtered list: dirs are mostly files.
	for probe := 0; probe < 4; probe++ {
		c := dir.Child(r.Pick(n))
		if !c.IsDir() {
			return c
		}
	}
	return nil
}

// pickDir selects a random directory child, or nil.
func pickDir(dir *namespace.Inode, r *sim.RNG) *namespace.Inode {
	n := dir.NumChildren()
	if n == 0 {
		return nil
	}
	for probe := 0; probe < 4; probe++ {
		c := dir.Child(r.Pick(n))
		if c.IsDir() {
			return c
		}
	}
	return nil
}

// valid rejects queued ops whose target got unlinked in the meantime.
// Only the root legitimately has no parent (and, uniquely, no name).
func valid(op Op) bool {
	return op.Target != nil && (op.Target.Parent() != nil || op.Target.Name() == "")
}
