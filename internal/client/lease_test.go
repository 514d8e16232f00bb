package client

import (
	"testing"

	"dynmds/internal/lease"
	"dynmds/internal/msg"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// grantNet echoes every request like echoNet but rides a lease grant on
// each read reply, snapshotting the registry's current generation the
// way the authority does. One reply struct is reused, so the grant path
// itself is allocation-free.
type grantNet struct {
	eng      *sim.Engine
	pop      *Population
	plane    *lease.Plane
	n        int
	delay    sim.Time
	duration sim.Time
	rep      msg.Reply
}

func (e *grantNet) NumMDS() int { return e.n }

func (e *grantNet) Send(i int, req *msg.Request) {
	if e.delay <= 0 {
		e.answer(req)
		return
	}
	e.eng.AfterCall(e.delay, grantAnswer, e, req)
}

func grantAnswer(a, b any) { a.(*grantNet).answer(b.(*msg.Request)) }

func (e *grantNet) answer(req *msg.Request) {
	e.rep = msg.Reply{
		Req: req, Client: req.Client, ID: req.ID, Gen: req.Gen,
		Issued: req.Issued, Completed: e.eng.Now(),
	}
	if !req.Op.IsUpdate() {
		e.rep.Leased = true
		e.rep.LeaseGen = e.plane.Reg.Gen(req.Target.ID)
		e.plane.Reg.NoteGrant(req.Target.ID)
	}
	e.pop.OnReply(&e.rep)
}

func leaseFixture(t *testing.T, cfg PopulationConfig, seed int64, delay sim.Time) (*sim.Engine, *Population, *lease.Plane) {
	t.Helper()
	tr, homes := popTree(t, 4)
	tn := workload.NewTenants(cfg.Tenant, cfg.Clients, homes, seed)
	eng := sim.NewEngine()
	lcfg := lease.Config{Enabled: true, Duration: 100 * sim.Millisecond}
	if err := lcfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	plane := lease.NewPlane(lcfg, cfg.Clients, tr.MaxID())
	net := &grantNet{eng: eng, n: 4, delay: delay, plane: plane, duration: lcfg.Duration}
	// Subtree strategy: clients are ignorant and follow hints, so the
	// stale-hint regression can steer routing through the hint table.
	pop := NewPopulation(cfg, eng, net, partition.NewStaticSubtree(4, tr, int(seed)), tn, seed)
	pop.AttachLeasePlane(plane)
	net.pop = pop
	return eng, pop, plane
}

// TestPopulationLeasedHitAllocFree pins the tentpole's hot path: once
// leases are installed, a leased read is served in the arrival handler
// with zero fabric hops and zero heap allocations — the slab lookup,
// the counters, and the recycle all run on pre-sized state. The 100ms
// lease lifetime keeps grants, expiries, and re-grants all live inside
// the pinned window, so the whole cycle is covered, not just the hit.
func TestPopulationLeasedHitAllocFree(t *testing.T) {
	cfg := PopulationConfig{
		Clients: 1000, Rate: 200,
		Tenant: workload.TenantConfig{Tenants: 4, FileSkew: 1, WorkingSet: 16},
		// Read-only mix: updates never consult the lease slab.
		MixStat: 90, MixReaddir: 10,
	}
	eng, pop, _ := leaseFixture(t, cfg, 11, 0)
	pop.Start()
	eng.RunUntil(2 * sim.Second)
	before := pop.LeaseHits()
	now := eng.Now()
	allocs := testing.AllocsPerRun(20, func() {
		now += 50 * sim.Millisecond
		eng.RunUntil(now)
	})
	if allocs != 0 {
		t.Fatalf("leased-hit path allocates: %v allocs per 50ms window", allocs)
	}
	if pop.LeaseHits() == before {
		t.Fatal("no leased hits during the pinned window")
	}
}

// TestLeaseRecallNotResurrectedByStaleHint is the HintTable/lease
// interplay regression (docs/DESIGN.md "Lease plane"): the two caches
// are deliberately decoupled. A hint is a routing guess — stale ones
// mis-steer a request to a node that forwards it. A lease is a serve
// capability — staleness here would be a coherence hole. After a
// recall, neither a surviving slab slot nor a grant that raced the
// recall (carrying the pre-recall generation snapshot) may serve
// another local read, no matter what the hint table says.
func TestLeaseRecallNotResurrectedByStaleHint(t *testing.T) {
	cfg := PopulationConfig{
		Clients: 10, Rate: 10,
		Tenant:  workload.TenantConfig{Tenants: 2, WorkingSet: 4},
		MixStat: 1,
	}
	_, pop, plane := leaseFixture(t, cfg, 1, 0)
	f := pop.tenants.File(0, 0, 0)
	const g = 3 // client id

	// Client g holds a live lease and a hint for the same record.
	gen := plane.Reg.Gen(f.ID)
	plane.Reg.NoteGrant(f.ID)
	plane.Tab.Install(g, f.ID, gen, sim.Second)
	pop.hints.Put(g, msg.Hint{Ino: f.ID, Authority: 2})
	if !plane.Tab.Valid(g, f.ID, plane.Reg.Gen(f.ID), 0) {
		t.Fatal("fresh lease not valid")
	}

	// A mutation recalls the record: the generation bump must kill the
	// lease even though the slab slot and the hint both survive.
	plane.Reg.Recall(f.ID)
	if plane.Tab.Valid(g, f.ID, plane.Reg.Gen(f.ID), 0) {
		t.Fatal("recalled lease still serves reads")
	}

	// The stale hint still steers routing — that is all it may do.
	req := &msg.Request{Op: msg.Stat, Target: f}
	if got := pop.direct(g, req, 12345); got != 2 {
		t.Fatalf("stale hint no longer routes: direct = %d, want 2", got)
	}

	// A grant that raced the recall arrives carrying the old generation
	// snapshot. Installing it must not resurrect the lease: Valid
	// compares against the registry's current generation.
	plane.Tab.Install(g, f.ID, gen, 2*sim.Second)
	if plane.Tab.Valid(g, f.ID, plane.Reg.Gen(f.ID), 0) {
		t.Fatal("pre-recall grant snapshot resurrected a recalled lease")
	}

	// Only a fresh grant at the post-recall generation serves again.
	plane.Reg.NoteGrant(f.ID)
	plane.Tab.Install(g, f.ID, plane.Reg.Gen(f.ID), 2*sim.Second)
	if !plane.Tab.Valid(g, f.ID, plane.Reg.Gen(f.ID), 0) {
		t.Fatal("post-recall grant not honoured")
	}
}
