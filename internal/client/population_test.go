package client

import (
	"math"
	"runtime"
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
	tr := emptyTree()
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
	pop := NewPopulation(cfg, eng, net, partition.FileHash{N: 4}, tn, seed)
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
	pop := NewPopulation(cfg, eng, net, partition.NewStaticSubtree(8, emptyTree(), 1), tn, 1)
	net.pop = pop
	f := tn.File(0, 0, 0)
	pop.hints.Put(3, msg.Hint{Ino: f.ID, Authority: 5})
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

// TestPopulationDrawsAreSplitmix holds the draw-count slab to the
// stream it replaced: a client's n-th draw, through an arrival's cursor
// or through next, is the n-th output of a splitmix64 state seeded at
// the client's origin and stepped by gamma.
func TestPopulationDrawsAreSplitmix(t *testing.T) {
	const seed, clients, draws = 9, 10, 1000
	_, homes := popTree(t, 2)
	tn := workload.NewTenants(workload.TenantConfig{Tenants: 2, WorkingSet: 4}, clients, homes, seed)
	newPop := func() *Population {
		return NewPopulation(PopulationConfig{Clients: clients}, sim.NewEngine(), &echoNet{n: 4}, partition.FileHash{N: 4}, tn, seed)
	}
	viaCursor, viaNext := newPop(), newPop()
	for g := 0; g < clients; g++ {
		li := int32(g)
		state := mix64(uint64(seed) ^ mix64(uint64(g)+0x9E3779B97F4A7C15))
		r := viaCursor.stream(li)
		for n := 1; n <= draws; n++ {
			state += 0x9E3779B97F4A7C15
			want := mix64(state)
			if got := r.next(); got != want {
				t.Fatalf("client %d draw %d: cursor %#x, splitmix64 %#x", g, n, got, want)
			}
			if got := viaNext.next(li); got != want {
				t.Fatalf("client %d draw %d: next %#x, splitmix64 %#x", g, n, got, want)
			}
		}
		if viaNext.draws[li] != draws {
			t.Fatalf("client %d: count %d after %d draws", g, viaNext.draws[li], draws)
		}
	}
}

// TestPopulationDrawCountWraps: the count's last value is a draw no
// client may take; the next one panics rather than restart the stream.
func TestPopulationDrawCountWraps(t *testing.T) {
	_, pop, _ := popFixture(t, PopulationConfig{Clients: 2, Tenant: workload.TenantConfig{Tenants: 1}}, 3, 0)
	pop.draws[1] = math.MaxUint32 - 1
	pop.next(1)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("a draw past 2^32-1 did not panic")
		}
	}()
	pop.next(1)
}

// TestRearmCapUnderWheelHorizon: the longest inter-arrival rearm
// schedules — a rate multiplier small enough to overflow sim.Time,
// capped at maxInterArrival — fits the wheel's horizon at wheelTick
// even from between two ticks, where the deadline rounds up.
func TestRearmCapUnderWheelHorizon(t *testing.T) {
	eng, pop, _ := popFixture(t, PopulationConfig{Clients: 1, Tenant: workload.TenantConfig{Tenants: 1}}, 3, 0)
	pop.wheel.Start()
	eng.RunUntil(wheelTick / 2)
	pop.rateMul = 1e-300
	r := pop.stream(0)
	pop.rearm(0, 0, &r)
	if pop.draws[0] != 1 {
		t.Fatalf("rearm stored count %d, want 1", pop.draws[0])
	}
}

// TestPopulationHeapBytesPerClient measures what a client costs on the
// heap — draw count, wheel link and deadline, hint-region index — and
// holds FootprintBytes, which the bench's bytes_per_client row and the
// clients plan's B/client column report, to that measurement.
func TestPopulationHeapBytesPerClient(t *testing.T) {
	const clients = 1_000_000
	_, homes := popTree(t, 4)
	tn := workload.NewTenants(workload.TenantConfig{Tenants: 16}, clients, homes, 1)
	eng := sim.NewEngine()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pop := NewPopulation(PopulationConfig{Clients: clients}, eng, &echoNet{n: 4}, partition.FileHash{N: 4}, tn, 1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	reported := float64(pop.FootprintBytes() - tn.FootprintBytes())
	t.Logf("%.2f heap B/client, FootprintBytes %.2f", heap/clients, reported/clients)
	if bpc := heap / clients; bpc > 15 {
		t.Errorf("population holds %.1f heap B/client, gate 15", bpc)
	}
	if math.Abs(reported-heap) > 0.05*heap {
		t.Errorf("FootprintBytes reports %.0f B without the tenants, the heap grew %.0f B", reported, heap)
	}
	runtime.KeepAlive(pop)
}
