package client

import (
	"testing"

	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// recordNet echoes replies synchronously and buckets every send into
// one-second windows, counting ops and hotspot hits per window.
type recordNet struct {
	eng  *sim.Engine
	pop  *Population
	n    int
	hot  *namespace.Inode
	rep  msg.Reply
	wins []recordWin
}

type recordWin struct {
	sends   uint64
	creates uint64
	stats   uint64
	hotHits uint64
}

func (e *recordNet) NumMDS() int { return e.n }

func (e *recordNet) Send(i int, req *msg.Request) {
	w := int(e.eng.Now() / sim.Second)
	for len(e.wins) <= w {
		e.wins = append(e.wins, recordWin{})
	}
	win := &e.wins[w]
	win.sends++
	switch req.Op {
	case msg.Create:
		win.creates++
	case msg.Stat:
		win.stats++
	}
	if e.hot != nil && req.Target == e.hot {
		win.hotHits++
	}
	e.rep = msg.Reply{
		Req: req, Client: req.Client, ID: req.ID, Gen: req.Gen,
		Issued: req.Issued, Completed: e.eng.Now(),
	}
	e.pop.OnReply(&e.rep)
}

func actFixture(t *testing.T, cfg PopulationConfig, seed int64) (*sim.Engine, *Population, *recordNet, []*namespace.Inode) {
	t.Helper()
	_, homes := popTree(t, 4)
	tn := workload.NewTenants(cfg.Tenant, cfg.Clients, homes, seed)
	eng := sim.NewEngine()
	net := &recordNet{eng: eng, n: 4}
	pop := NewPopulation(cfg, []*sim.Engine{eng}, net, partition.FileHash{N: 4}, tn, seed)
	net.pop = pop
	return eng, pop, net, homes
}

// TestActRetargetsMixRateAndHotspot drives one act through the
// population and checks all three retargeting mechanisms window by
// window: the op mix flips to creates, the arrival rate triples, and
// the hotspot absorbs its fraction of targets — then everything reverts
// to the base phase at the act's end.
func TestActRetargetsMixRateAndHotspot(t *testing.T) {
	cfg := PopulationConfig{
		Clients: 400, Rate: 50,
		Tenant:  workload.TenantConfig{Tenants: 4, WorkingSet: 8},
		MixStat: 1, // base phase: pure stat
	}
	eng, pop, net, homes := actFixture(t, cfg, 21)
	hot := homes[0]
	net.hot = hot
	pop.ScheduleActs([]Act{{
		Name: "storm", From: sim.Second, To: 2 * sim.Second,
		RateMul: 3,
		Mix:     [numMixOps]float64{0, 0, 0, 1, 0}, // pure create
		Hot:     hot, HotFrac: 0.8,
	}})
	pop.Start()
	eng.RunUntil(3 * sim.Second)

	if len(net.wins) < 3 {
		t.Fatalf("only %d windows recorded", len(net.wins))
	}
	base, storm, after := net.wins[0], net.wins[1], net.wins[2]
	// Base phase: all stats, no creates, no hotspot concentration beyond
	// the tenant draw's natural share.
	if base.creates != 0 || base.stats != base.sends {
		t.Fatalf("base window not pure stat: %+v", base)
	}
	if after.creates != 0 {
		t.Fatalf("mix did not revert after the act: %+v", after)
	}
	// Act phase: pure create mix.
	if storm.stats != 0 || storm.creates != storm.sends {
		t.Fatalf("storm window not pure create: %+v", storm)
	}
	// Rate multiplier: ~3x the surrounding windows (one inter-arrival of
	// lag at each boundary, so allow a wide band).
	lo, hi := float64(base.sends)*2.2, float64(base.sends)*3.8
	if got := float64(storm.sends); got < lo || got > hi {
		t.Fatalf("storm sends = %d, want ~3x base %d", storm.sends, base.sends)
	}
	// Hotspot: 80% of draws redirect, and the undirected 20% still hit
	// the target at its natural ~1/4 share of 4 homes — so ~0.85 total.
	frac := float64(storm.hotHits) / float64(storm.sends)
	if frac < 0.80 || frac > 0.90 {
		t.Fatalf("hotspot fraction = %.3f, want ~0.85", frac)
	}
	if f := float64(after.hotHits) / float64(after.sends); f > 0.5 {
		t.Fatalf("hotspot did not revert after the act: %.3f", f)
	}
}

// TestActStatsAccounting cross-checks the per-act counters against the
// network's own window counts, and the latency lane against completions.
func TestActStatsAccounting(t *testing.T) {
	cfg := PopulationConfig{
		Clients: 300, Rate: 40,
		Tenant:  workload.TenantConfig{Tenants: 4, WorkingSet: 8},
		MixStat: 1,
	}
	eng, pop, net, _ := actFixture(t, cfg, 5)
	pop.ScheduleActs([]Act{
		{Name: "a", From: sim.Second, To: 2 * sim.Second},
		{Name: "b", From: 2 * sim.Second, To: 3 * sim.Second, RateMul: 2},
	})
	pop.Start()
	eng.RunUntil(4 * sim.Second)

	stats := pop.ActStats()
	if len(stats) != 2 {
		t.Fatalf("got %d act stats, want 2", len(stats))
	}
	for i, name := range []string{"a", "b"} {
		st := stats[i]
		if st.Name != name {
			t.Fatalf("act %d name = %q, want %q", i, st.Name, name)
		}
		// Synchronous echo: every send completes instantly, so the act's
		// issued and completed both equal the window's send count.
		want := net.wins[i+1].sends
		if st.Issued != want || st.Completed != want {
			t.Fatalf("act %q: issued=%d completed=%d, want %d", name, st.Issued, st.Completed, want)
		}
		if st.Lat.N() != st.Completed {
			t.Fatalf("act %q: latency lane N=%d, completed=%d", name, st.Lat.N(), st.Completed)
		}
	}
}

// TestActDeterminism pins bit-reproducibility with the full act
// machinery active: same seed, same counts, same event count, same tail
// quantile; a different seed diverges.
func TestActDeterminism(t *testing.T) {
	cfg := PopulationConfig{
		Clients: 300, Rate: 50,
		Tenant:  workload.TenantConfig{Tenants: 8, TenantSkew: 1, FileSkew: 1, WorkingSet: 8},
		MixStat: 80, MixReaddir: 20,
	}
	run := func(seed int64) (uint64, uint64, sim.Time, uint64) {
		eng, pop, _, homes := actFixture(t, cfg, seed)
		pop.ScheduleActs([]Act{
			{Name: "warm", From: sim.Second, To: 2 * sim.Second, RateMul: 2},
			{Name: "storm", From: 2 * sim.Second, To: 4 * sim.Second,
				Mix: [numMixOps]float64{50, 0, 0, 50, 0}, Hot: homes[1], HotFrac: 0.6},
		})
		pop.Start()
		eng.RunUntil(5 * sim.Second)
		return pop.Issued(), pop.Completed(), pop.ActStats()[1].Lat.Quantile(0.99), eng.Executed
	}
	i1, c1, q1, e1 := run(42)
	i2, c2, q2, e2 := run(42)
	if i1 != i2 || c1 != c2 || q1 != q2 || e1 != e2 {
		t.Fatalf("identical seeds diverged: (%d,%d,%v,%d) vs (%d,%d,%v,%d)",
			i1, c1, q1, e1, i2, c2, q2, e2)
	}
	if i3, _, _, _ := run(43); i3 == i1 {
		t.Fatal("different seeds produced identical arrival counts")
	}
}

// TestActSteadyStateAllocFree extends the population's zero-alloc pin
// to a window with an act active: retargeted rate, mix, hotspot and the
// per-act latency lane must not add a single steady-state allocation.
// (Boundary work — threshold rebuild, one histogram per act per shard —
// happens at begin/end, outside the pinned window.)
func TestActSteadyStateAllocFree(t *testing.T) {
	cfg := PopulationConfig{
		Clients: 1000, Rate: 200,
		Tenant: workload.TenantConfig{Tenants: 4, FileSkew: 1, WorkingSet: 16},
		// Create-free: creates inherently allocate the new name/inode.
		MixStat: 80, MixReaddir: 10, MixChmod: 10,
		DiurnalAmp: 0.3, BurstProb: 0.1,
	}
	eng, pop, _, homes := actFixture(t, cfg, 11)
	pop.ScheduleActs([]Act{{
		Name: "busy", From: sim.Second, To: 10 * sim.Second,
		RateMul: 2,
		Mix:     [numMixOps]float64{60, 20, 20, 0, 0},
		Hot:     homes[2], HotFrac: 0.5,
	}})
	pop.Start()
	// Warm into the act: boundary fired, pools and wheel at high water.
	eng.RunUntil(2 * sim.Second)
	now := eng.Now()
	allocs := testing.AllocsPerRun(20, func() {
		now += 50 * sim.Millisecond
		eng.RunUntil(now)
	})
	if allocs != 0 {
		t.Fatalf("act-active hot path allocates: %v allocs per 50ms window", allocs)
	}
	if st := pop.ActStats(); st[0].Issued == 0 || st[0].Completed == 0 {
		t.Fatal("no traffic during pin")
	}
}
