package workload

import (
	"testing"

	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

// oracleGeneral is the general-purpose generator as it stood before
// descend and wander stopped building a list of sub-directories: Next,
// wander and descend kept verbatim, the reference General is compared
// against draw for draw.
type oracleGeneral struct{ General }

func (g *oracleGeneral) Next(now sim.Time, r *sim.RNG) (Op, bool) {
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
		dir = oracleDescend(dir, r, 2)
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
		g.queue = append(g.queue, Op{Op: msg.Close, Target: f})
		return Op{Op: msg.Open, Target: f}, true
	case x < m.Stat+m.Open+m.Readdir:
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
		return Op{Op: msg.Create, Target: dir, NewName: newName('c', g.client, g.seq)}, true
	case x < m.Stat+m.Open+m.Readdir+m.Create+m.Unlink:
		if f := pickFile(dir, r); f != nil {
			return Op{Op: msg.Unlink, Target: f}, true
		}
		return Op{Op: msg.Stat, Target: dir}, true
	case x < m.Stat+m.Open+m.Readdir+m.Create+m.Unlink+m.Mkdir:
		g.seq++
		return Op{Op: msg.Mkdir, Target: dir, NewName: newName('d', g.client, g.seq)}, true
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
				return Op{Op: msg.Rename, Target: d, DstDir: dir, NewName: newName('r', g.client, g.seq)}, true
			}
		}
		if f := pickFile(dir, r); f != nil {
			g.seq++
			return Op{Op: msg.Rename, Target: f, DstDir: dir, NewName: newName('r', g.client, g.seq)}, true
		}
		return Op{Op: msg.Stat, Target: dir}, true
	}
}

func (g *oracleGeneral) wander(r *sim.RNG) {
	if g.cur == nil || g.cur.Parent() == nil && g.cur != g.region.Home {
		g.cur = g.region.Home // current dir was unlinked or moved away
	}
	if !inRegion(g.cur, g.region.Home) {
		g.cur = g.region.Home
	}
	if r.Float64() < g.cfg.PJump {
		if d := oracleDescend(g.region.Home, r, 8); d != nil {
			g.cur = d
		}
		return
	}
	if r.Float64() >= g.cfg.PMove {
		return
	}
	// One random-walk step: descend into a child dir or ascend.
	var dirs []*namespace.Inode
	for _, c := range g.cur.Children() {
		if c.IsDir() {
			dirs = append(dirs, c)
		}
	}
	up := g.cur != g.region.Home && g.cur.Parent() != nil
	n := len(dirs)
	if up {
		n++
	}
	if n == 0 {
		return
	}
	i := r.Pick(n)
	if i == len(dirs) {
		g.cur = g.cur.Parent()
	} else {
		g.cur = dirs[i]
	}
}

func oracleDescend(root *namespace.Inode, r *sim.RNG, maxSteps int) *namespace.Inode {
	cur := root
	for s := 0; s < maxSteps; s++ {
		var dirs []*namespace.Inode
		for _, c := range cur.Children() {
			if c.IsDir() {
				dirs = append(dirs, c)
			}
		}
		if len(dirs) == 0 || r.Float64() < 0.4 {
			break
		}
		cur = dirs[r.Pick(len(dirs))]
	}
	return cur
}

// TestGeneralMatchesOracle draws 200k ops per seed from General and from
// the oracle over one tree, applying every create, mkdir, unlink and
// rename drawn so both walk a namespace that changes under them (child
// order included: a removal swaps the last entry into the hole). The two
// must return the same op every time and leave their RNGs in the same
// state — the goldens and digests hang off that stream.
func TestGeneralMatchesOracle(t *testing.T) {
	draws := 200_000
	if testing.Short() {
		draws = 20_000
	}
	for seed := int64(1); seed <= 3; seed++ {
		snap := genSnapshot(t)
		tree := snap.Tree
		cfg := DefaultGeneralConfig()
		// Churn the directory structure far harder than the default mix.
		cfg.Mix.Mkdir, cfg.Mix.Rename, cfg.Mix.Unlink = 6, 4, 8
		cfg.PMove, cfg.PJump, cfg.PShared, cfg.PDirRename = 0.3, 0.1, 0.2, 0.5
		g := NewGeneral(7, cfg, region(snap, int(seed)))
		o := &oracleGeneral{*NewGeneral(7, cfg, region(snap, int(seed)))}
		r, or := sim.NewRNG(seed), sim.NewRNG(seed)
		mutations := 0
		for i := 0; i < draws; i++ {
			now := sim.Time(i) * sim.Millisecond
			op, ok := g.Next(now, r)
			want, wantOK := o.Next(now, or)
			if op != want || ok != wantOK {
				t.Fatalf("seed %d draw %d: General drew %+v (%v), the oracle %+v (%v)", seed, i, op, ok, want, wantOK)
			}
			if !ok {
				continue
			}
			var err error
			switch op.Op {
			case msg.Create:
				_, err = tree.Create(op.Target, op.NewName)
			case msg.Mkdir:
				_, err = tree.Mkdir(op.Target, op.NewName)
			case msg.Unlink:
				err = tree.Remove(op.Target)
			case msg.Rename:
				err = tree.Rename(op.Target, op.DstDir, op.NewName)
			default:
				continue
			}
			if err == nil {
				mutations++
			}
		}
		if a, b := r.Int63(), or.Int63(); a != b {
			t.Fatalf("seed %d: the RNG streams parted (next draws %d and %d)", seed, a, b)
		}
		if mutations < draws/20 {
			t.Fatalf("seed %d: only %d of %d draws changed the tree", seed, mutations, draws)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGeneralNextAllocFree pins the generator's steady state: an op that
// carries no new name (everything but create, mkdir and rename) is drawn
// without allocating, the wander and the shared-tree descent included.
func TestGeneralNextAllocFree(t *testing.T) {
	snap := genSnapshot(t)
	cfg := DefaultGeneralConfig()
	cfg.Mix.Create, cfg.Mix.Mkdir, cfg.Mix.Rename = 0, 0, 0
	cfg.PMove, cfg.PJump, cfg.PShared = 0.3, 0.1, 0.2
	g := NewGeneral(0, cfg, region(snap, 0))
	r := sim.NewRNG(1)
	kinds := make(map[msg.Op]int)
	draw := func() {
		if op, ok := g.Next(0, r); ok {
			kinds[op.Op]++
		}
	}
	for i := 0; i < 1000; i++ {
		draw() // the follow-up queue reaches its working size
	}
	if allocs := testing.AllocsPerRun(20_000, draw); allocs != 0 {
		t.Fatalf("Next allocated %v times per draw, want 0", allocs)
	}
	for _, k := range []msg.Op{msg.Stat, msg.Open, msg.Close, msg.Readdir, msg.Unlink, msg.Chmod} {
		if kinds[k] == 0 {
			t.Errorf("no %v drawn: %v", k, kinds)
		}
	}
}
