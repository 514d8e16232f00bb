package client

import (
	"testing"

	"dynmds/internal/metrics"
	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// popTree builds a namespace with h homes, each with files and a subdir.
func popTree(t *testing.T, h int) (*namespace.Tree, []*namespace.Inode) {
	t.Helper()
	tr := namespace.NewTree()
	root, err := tr.Mkdir(tr.Root, "home")
	if err != nil {
		t.Fatal(err)
	}
	homes := make([]*namespace.Inode, h)
	for i := 0; i < h; i++ {
		u, err := tr.Mkdir(root, "u"+string(rune('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		homes[i] = u
		for j := 0; j < 8; j++ {
			if _, err := tr.Create(u, "f"+string(rune('0'+j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr, homes
}

// echoNet answers every request synchronously after a fixed virtual
// latency, reusing one reply struct (the population never retains it),
// and records an accepted reply's response time as the cluster does.
type echoNet struct {
	eng   *sim.Engine
	pop   *Population
	n     int
	delay sim.Time
	sends uint64
	rep   msg.Reply
	lat   metrics.LatHist
}

func (e *echoNet) NumMDS() int { return e.n }

func (e *echoNet) Send(i int, req *msg.Request) {
	e.sends++
	if e.delay <= 0 {
		e.answer(req)
		return
	}
	e.eng.AfterCall(e.delay, echoAnswer, e, req)
}

func echoAnswer(a, b any) { a.(*echoNet).answer(b.(*msg.Request)) }

func (e *echoNet) answer(req *msg.Request) {
	e.rep = msg.Reply{
		Req: req, Client: req.Client, ID: req.ID, Gen: req.Gen,
		Issued: req.Issued, Completed: e.eng.Now(),
	}
	if e.pop.OnReply(&e.rep) {
		e.lat.Observe(e.rep.Latency())
	}
}

func popFixture(t *testing.T, cfg PopulationConfig, seed int64, delay sim.Time) (*sim.Engine, *Population, *echoNet) {
	t.Helper()
	_, homes := popTree(t, 4)
	tn := workload.NewTenants(cfg.Tenant, cfg.Clients, homes, seed)
	eng := sim.NewEngine()
	net := &echoNet{eng: eng, n: 4, delay: delay}
	pop := NewPopulation(cfg, []*sim.Engine{eng}, net, partition.FileHash{N: 4}, tn, seed)
	net.pop = pop
	return eng, pop, net
}

func TestPopulationOpenLoopRate(t *testing.T) {
	cfg := PopulationConfig{
		Clients: 500, Rate: 100,
		Tenant:  workload.TenantConfig{Tenants: 4, WorkingSet: 8},
		MixStat: 1,
	}
	eng, pop, net := popFixture(t, cfg, 7, 200*sim.Microsecond)
	pop.Start()
	eng.RunUntil(10 * sim.Second)
	// 500 clients × 100 ops/s × 10 s = 500k expected arrivals; Poisson
	// noise over 500k draws is well under 5%.
	want := 500.0 * 100 * 10
	got := float64(pop.Issued())
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("issued = %.0f, want ≈ %.0f", got, want)
	}
	// Open loop: sends issued within the last echo delay are still in
	// flight at the cutoff.
	if d := net.sends - pop.Completed(); d > 1000 {
		t.Fatalf("completed %d lags sends %d by %d", pop.Completed(), net.sends, d)
	}
	h := &net.lat
	if h.N() != pop.Completed() {
		t.Fatalf("latency hist N = %d, completed %d", h.N(), pop.Completed())
	}
	if q := h.Quantile(0.5); q < 200*sim.Microsecond {
		t.Fatalf("p50 = %v, want >= the 200µs echo delay", q)
	}
	if m := h.Mean(); m != (200 * sim.Microsecond).Seconds() {
		t.Fatalf("mean latency = %v s, want the 200µs echo delay exactly", m)
	}
}

func TestPopulationDeterminism(t *testing.T) {
	cfg := PopulationConfig{
		Clients: 200, Rate: 50,
		Tenant:     workload.TenantConfig{Tenants: 8, TenantSkew: 1, FileSkew: 1, WorkingSet: 8},
		DiurnalAmp: 0.5, BurstProb: 0.2,
	}
	run := func(seed int64) (uint64, uint64, sim.Time, uint64) {
		eng, pop, net := popFixture(t, cfg, seed, 300*sim.Microsecond)
		pop.Start()
		eng.RunUntil(5 * sim.Second)
		return pop.Issued(), pop.Completed(), net.lat.Quantile(0.99), eng.Executed
	}
	i1, c1, q1, e1 := run(42)
	i2, c2, q2, e2 := run(42)
	if i1 != i2 || c1 != c2 || q1 != q2 || e1 != e2 {
		t.Fatalf("identical seeds diverged: (%d,%d,%v,%d) vs (%d,%d,%v,%d)",
			i1, c1, q1, e1, i2, c2, q2, e2)
	}
	i3, _, _, _ := run(43)
	if i3 == i1 {
		t.Fatal("different seeds produced identical arrival counts")
	}
}

func TestPopulationModulationChangesTraffic(t *testing.T) {
	base := PopulationConfig{
		Clients: 200, Rate: 50,
		Tenant:  workload.TenantConfig{Tenants: 4, WorkingSet: 8},
		MixStat: 1,
	}
	run := func(cfg PopulationConfig) uint64 {
		eng, pop, _ := popFixture(t, cfg, 5, 0)
		pop.Start()
		eng.RunUntil(5 * sim.Second)
		return pop.Issued()
	}
	plain := run(base)
	burst := base
	burst.BurstProb = 0.5
	if b := run(burst); b <= plain*11/10 {
		t.Fatalf("burst modulation did not raise traffic: %d vs %d", b, plain)
	}
}

func TestPopulationHintsSteerDirection(t *testing.T) {
	_, homes := popTree(t, 2)
	cfg := PopulationConfig{
		Clients: 10, Rate: 10,
		Tenant:  workload.TenantConfig{Tenants: 2, WorkingSet: 4},
		MixStat: 1,
	}
	tn := workload.NewTenants(cfg.Tenant, cfg.Clients, homes, 1)
	eng := sim.NewEngine()
	net := &echoNet{eng: eng, n: 8}
	// Subtree strategy: clients are ignorant and follow hints.
	tr := homes[0].Parent()
	_ = tr
	pop := NewPopulation(cfg, []*sim.Engine{eng}, net, partition.NewStaticSubtree(8, namespace.NewTree(), 1), tn, 1)
	net.pop = pop
	f := tn.File(0, 0, 0)
	pop.Hints().Put(3, msg.Hint{Ino: f.ID, Authority: 5})
	req := &msg.Request{Op: msg.Stat, Target: f}
	if got := pop.direct(3, req, 12345); got != 5 {
		t.Fatalf("direct = %d, want hinted 5", got)
	}
	// Another client without the hint falls back to u mod n.
	if got := pop.direct(4, req, 12345); got != 12345%8 {
		t.Fatalf("direct = %d, want fallback %d", got, 12345%8)
	}
}

func TestPopulationArrivalAllocFree(t *testing.T) {
	cfg := PopulationConfig{
		Clients: 1000, Rate: 200,
		Tenant: workload.TenantConfig{Tenants: 4, FileSkew: 1, WorkingSet: 16},
		// Create-free mix: creates inherently allocate the new name/inode.
		MixStat: 80, MixReaddir: 10, MixChmod: 10,
		DiurnalAmp: 0.3, BurstProb: 0.1,
	}
	eng, pop, _ := popFixture(t, cfg, 11, 0)
	pop.Start()
	// Warm to steady state: pools filled, wheel slots and engine heap at
	// their high-water marks.
	eng.RunUntil(2 * sim.Second)
	now := eng.Now()
	allocs := testing.AllocsPerRun(20, func() {
		now += 50 * sim.Millisecond
		eng.RunUntil(now)
	})
	if allocs != 0 {
		t.Fatalf("open-loop hot path allocates: %v allocs per 50ms window", allocs)
	}
	if pop.Issued() == 0 || pop.Completed() == 0 {
		t.Fatal("no traffic during pin")
	}
}
