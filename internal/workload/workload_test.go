package workload

import (
	"testing"

	"dynmds/internal/fsgen"
	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

func genSnapshot(t *testing.T) *fsgen.Snapshot {
	t.Helper()
	cfg := fsgen.Default()
	cfg.Users = 10
	fz, err := fsgen.GenerateFrozen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := fz.Thaw()
	return snap
}

func region(snap *fsgen.Snapshot, i int) Region {
	return Region{
		Home:   snap.Homes[i%len(snap.Homes)],
		Shared: []*namespace.Inode{snap.System, snap.Projects[0]},
	}
}

func TestGeneralProducesValidOps(t *testing.T) {
	snap := genSnapshot(t)
	g := NewGeneral(0, DefaultGeneralConfig(), region(snap, 0))
	r := sim.NewRNG(1)
	counts := make(map[msg.Op]int)
	for i := 0; i < 5000; i++ {
		op, ok := g.Next(sim.Time(i)*sim.Millisecond, r)
		if !ok {
			continue
		}
		if op.Target == nil {
			t.Fatal("nil target")
		}
		if (op.Op == msg.Create || op.Op == msg.Mkdir) && op.NewName == "" {
			t.Fatal("create without name")
		}
		if op.Op == msg.Rename && op.DstDir == nil {
			t.Fatal("rename without destination")
		}
		counts[op.Op]++
	}
	// Stats dominate; open/close pairs match approximately; every op
	// type occurs in 5000 draws.
	if counts[msg.Stat] < counts[msg.Create] {
		t.Fatalf("mix inverted: %v", counts)
	}
	if counts[msg.Open] == 0 || counts[msg.Close] == 0 {
		t.Fatal("no open/close")
	}
	d := counts[msg.Open] - counts[msg.Close]
	if d < -1 || d > 1 {
		t.Fatalf("open/close unpaired: %d vs %d", counts[msg.Open], counts[msg.Close])
	}
	for _, op := range []msg.Op{msg.Readdir, msg.Create, msg.Unlink, msg.Mkdir, msg.Chmod, msg.Rename} {
		if counts[op] == 0 {
			t.Fatalf("op %v never generated: %v", op, counts)
		}
	}
}

func TestGeneralLocality(t *testing.T) {
	snap := genSnapshot(t)
	cfg := DefaultGeneralConfig()
	cfg.PShared = 0 // pure local workload
	g := NewGeneral(0, cfg, region(snap, 0))
	r := sim.NewRNG(2)
	home := snap.Homes[0]
	for i := 0; i < 2000; i++ {
		op, ok := g.Next(0, r)
		if !ok {
			continue
		}
		n := op.Target
		if n != home && !home.IsAncestorOf(n) {
			t.Fatalf("op %v escaped region: %s", op.Op, n.Path())
		}
	}
}

func TestGeneralSharedAccesses(t *testing.T) {
	snap := genSnapshot(t)
	cfg := DefaultGeneralConfig()
	cfg.PShared = 0.5
	g := NewGeneral(0, cfg, region(snap, 0))
	r := sim.NewRNG(3)
	shared := 0
	for i := 0; i < 1000; i++ {
		op, ok := g.Next(0, r)
		if !ok {
			continue
		}
		if !inRegion(op.Target, snap.Homes[0]) {
			shared++
		}
	}
	if shared < 100 {
		t.Fatalf("shared accesses = %d, want many", shared)
	}
}

func TestReaddirFollowedByStats(t *testing.T) {
	snap := genSnapshot(t)
	cfg := DefaultGeneralConfig()
	cfg.Mix = Mix{Readdir: 1} // only readdirs
	g := NewGeneral(0, cfg, region(snap, 0))
	r := sim.NewRNG(4)
	var ops []Op
	for i := 0; i < 50; i++ {
		op, ok := g.Next(0, r)
		if ok {
			ops = append(ops, op)
		}
	}
	// After each readdir of a non-empty dir, a run of stats follows.
	statsAfter := false
	for i := 1; i < len(ops); i++ {
		if ops[i-1].Op == msg.Readdir && ops[i].Op == msg.Stat {
			statsAfter = true
		}
	}
	if !statsAfter {
		t.Fatal("no stat runs after readdir")
	}
}

func TestShiftScenario(t *testing.T) {
	snap := genSnapshot(t)
	newHome := snap.Homes[5]
	g := NewGeneral(7, DefaultGeneralConfig(), region(snap, 0))
	s := NewShift(g, 10*sim.Second, []*namespace.Inode{newHome}, true)
	r := sim.NewRNG(5)

	// Before the shift: ops stay in the old region (modulo shared).
	op, ok := s.Next(sim.Second, r)
	if !ok {
		t.Fatal("no op before shift")
	}
	_ = op
	// After the shift: first op is the private mkdir in the new home.
	op, ok = s.Next(11*sim.Second, r)
	if !ok || op.Op != msg.Mkdir || op.Target != newHome {
		t.Fatalf("first post-shift op = %+v", op)
	}
	// Until the mkdir is visible, stats of the new home.
	op, _ = s.Next(11*sim.Second, r)
	if op.Op != msg.Stat || op.Target != newHome {
		t.Fatalf("pre-dir op = %+v", op)
	}
	// Simulate the mkdir completing.
	d, err := snap.Tree.Mkdir(newHome, "mig7")
	if err != nil {
		t.Fatal(err)
	}
	creates, inRegionOps := 0, 0
	for i := 0; i < 60; i++ {
		op, ok := s.Next(12*sim.Second, r)
		if !ok {
			continue
		}
		if op.Op == msg.Create {
			creates++
			if op.Target != d {
				t.Fatalf("create outside private dir: %s", op.Target.Path())
			}
			// Apply it so later stats can find files.
			if _, err := snap.Tree.Create(d, op.NewName); err != nil {
				t.Fatal(err)
			}
		}
		if op.Target == newHome || newHome.IsAncestorOf(op.Target) {
			inRegionOps++
		}
	}
	if creates < 20 {
		t.Fatalf("creates = %d, want create-heavy stream", creates)
	}
	if inRegionOps < 50 {
		t.Fatalf("in-region ops = %d, want nearly all", inRegionOps)
	}
	// Non-migrating clients never shift.
	g2 := NewGeneral(8, DefaultGeneralConfig(), region(snap, 1))
	s2 := NewShift(g2, 10*sim.Second, []*namespace.Inode{newHome}, false)
	for i := 0; i < 100; i++ {
		op, ok := s2.Next(20*sim.Second, r)
		if ok && op.Op == msg.Mkdir && op.Target == newHome {
			t.Fatal("non-migrating client shifted")
		}
	}
}

func TestFlashCrowdScenario(t *testing.T) {
	snap := genSnapshot(t)
	target := snap.Projects[0].Child(0)
	g := NewGeneral(0, DefaultGeneralConfig(), region(snap, 0))
	f := NewFlashCrowd(g, target)
	r := sim.NewRNG(6)

	// During the crowd, all ops hit the target.
	hits := 0
	for i := 0; i < 100; i++ {
		op, ok := f.Next(9*sim.Second, r)
		if !ok {
			continue
		}
		if op.Target != target {
			t.Fatalf("crowd op elsewhere: %s", op.Target.Path())
		}
		hits++
	}
	if hits == 0 {
		t.Fatal("no crowd ops")
	}
	// After the crowd, back to normal (not pinned to the target).
	other := 0
	for i := 0; i < 100; i++ {
		op, ok := f.Next(15*sim.Second, r)
		if ok && op.Target != target {
			other++
		}
	}
	if other == 0 {
		t.Fatal("workload stuck on flash target after crowd")
	}
}

func TestScientificPhases(t *testing.T) {
	snap := genSnapshot(t)
	job := snap.Projects[1]
	g := NewGeneral(3, DefaultGeneralConfig(), region(snap, 3))
	s := NewScientific(g, job)
	r := sim.NewRNG(7)

	// Phase 0 burst (t in [0, 2s)): N-to-1 on a job file.
	op, ok := s.Next(sim.Second, r)
	if !ok {
		t.Fatal("no op in burst")
	}
	if op.Target.Parent() != job {
		t.Fatalf("N-to-1 target not in job dir: %s", op.Target.Path())
	}
	// Phase 1 burst (t in [4s, 6s)): N-to-N creates in the job dir.
	op, ok = s.Next(5*sim.Second, r)
	if !ok || op.Op != msg.Create || op.Target != job {
		t.Fatalf("N-to-N op = %+v", op)
	}
	// Quiet part: local work, not the job dir.
	quiet := 0
	for i := 0; i < 50; i++ {
		op, ok := s.Next(3*sim.Second, r)
		if ok && op.Target != job && op.Target.Parent() != job {
			quiet++
		}
	}
	if quiet == 0 {
		t.Fatal("no quiet-phase local work")
	}
}

func TestValidRejectsUnlinked(t *testing.T) {
	snap := genSnapshot(t)
	var f *namespace.Inode
	for _, c := range snap.Homes[0].Children() {
		if !c.IsDir() {
			f = c
			break
		}
	}
	if f == nil {
		t.Skip("home has no files")
	}
	if !valid(Op{Op: msg.Stat, Target: f}) {
		t.Fatal("live target rejected")
	}
	// Simulate the inode being unlinked: Parent becomes nil.
	if err := snap.Tree.Remove(f); err != nil {
		t.Fatal(err)
	}
	if valid(Op{Op: msg.Stat, Target: f}) {
		t.Fatal("unlinked target accepted")
	}
}
