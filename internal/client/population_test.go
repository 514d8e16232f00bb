package client

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dynmds/internal/metrics"
	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/snap"
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
		Req: req, Client: req.Client, ID: req.ID,
		Issued: req.Issued, Completed: e.eng.Now(),
	}
	if e.pop.OnReply(&e.rep) {
		e.lat.Observe(e.rep.Latency())
	}
}

// withWords gives every client of pop a word holding the shared count,
// as a restore does before it reads the counts, so a test may draw, put
// hints or arrive for any client without an arming pass.
func withWords(pop *Population) *Population {
	pop.hints.fill()
	return pop
}

func popFixture(t *testing.T, cfg PopulationConfig, seed int64, delay sim.Time) (*sim.Engine, *Population, *echoNet) {
	t.Helper()
	_, homes := popTree(t, 4)
	tn := workload.NewTenants(cfg.Tenant, cfg.Clients, homes, seed)
	eng := sim.NewEngine()
	net := &echoNet{eng: eng, n: 4, delay: delay}
	pop := NewPopulation(cfg, eng, net, partition.FileHash{N: 4}, tn, 0, seed)
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
	got := float64(pop.Counts().Issued)
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("issued = %.0f, want ≈ %.0f", got, want)
	}
	// Open loop: sends issued within the last echo delay are still in
	// flight at the cutoff.
	if d := net.sends - pop.Counts().Completed; d > 1000 {
		t.Fatalf("completed %d lags sends %d by %d", pop.Counts().Completed, net.sends, d)
	}
	h := &net.lat
	if h.N() != pop.Counts().Completed {
		t.Fatalf("latency hist N = %d, completed %d", h.N(), pop.Counts().Completed)
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
		return pop.Counts().Issued, pop.Counts().Completed, net.lat.Quantile(0.99), eng.Executed
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
		return pop.Counts().Issued
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
	pop := withWords(NewPopulation(cfg, eng, net, partition.NewStaticSubtree(8, emptyTree(), 1), tn, 0, 1))
	net.pop = pop
	f := tn.File(0, 0, 0)
	pop.hints.Put(3, msg.Hint{Ino: f.ID, Authority: 5})
	req := &msg.Request{Op: msg.Stat, Target: f}
	if got := pop.direct(pop.hints.record(3), req, 12345); got != 5 {
		t.Fatalf("direct = %d, want hinted 5", got)
	}
	// Another client without the hint falls back to u mod n.
	if got := pop.direct(pop.hints.record(4), req, 12345); got != 12345%8 {
		t.Fatalf("direct = %d, want fallback %d", got, 12345%8)
	}
}

// TestPopulationArrivalAllocFree pins the open-loop hot path: with a
// create-free mix an arrival allocates nothing. With creates or renames
// each arrival of one carries a new name, written into the population's
// block of names: at most one malloc per 16 names, not one each.
func TestPopulationArrivalAllocFree(t *testing.T) {
	base := PopulationConfig{
		Clients: 1000, Rate: 200,
		Tenant:  workload.TenantConfig{Tenants: 4, FileSkew: 1, WorkingSet: 16},
		MixStat: 80, MixReaddir: 10, MixChmod: 10,
		DiurnalAmp: 0.3, BurstProb: 0.1,
	}
	for _, v := range []struct {
		name           string
		create, rename float64
	}{{"no names", 0, 0}, {"create", 10, 0}, {"rename", 0, 10}} {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			cfg.MixCreate, cfg.MixRename = v.create, v.rename
			eng, pop, _ := popFixture(t, cfg, 11, 0)
			pop.Start()
			// Warm to steady state: pools filled, wheel slots and engine
			// heap at their high-water marks.
			eng.RunUntil(2 * sim.Second)
			now := eng.Now()
			var names int
			allocs := testing.AllocsPerRun(1, func() {
				seq := pop.nameSeq
				now += sim.Second
				eng.RunUntil(now)
				names = pop.nameSeq - seq
			})
			t.Logf("%d names, %.0f mallocs", names, allocs)
			if allocs > float64(names/16) {
				t.Fatalf("open-loop hot path allocates: %.0f mallocs per 1s window with %d names", allocs, names)
			}
			if pop.Counts().Issued == 0 || pop.Counts().Completed == 0 {
				t.Fatal("no traffic during pin")
			}
			if v.create+v.rename > 0 && names < 1000 {
				t.Fatalf("only %d names during the pin", names)
			}
		})
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
		return withWords(NewPopulation(PopulationConfig{Clients: clients}, sim.NewEngine(), &echoNet{n: 4}, partition.FileHash{N: 4}, tn, 0, seed))
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
		if n := viaNext.stream(li).n; n != draws {
			t.Fatalf("client %d: count %d after %d draws", g, n, draws)
		}
	}
}

// TestPopulationDrawCountWraps: a count stops at 2^31-1, below the
// record flag that shares its word, whether the client keeps it in its
// word or in its hint record; the next draw panics rather than restart
// the stream or turn the count into a record number.
func TestPopulationDrawCountWraps(t *testing.T) {
	_, pop, _ := popFixture(t, PopulationConfig{Clients: 2, Tenant: workload.TenantConfig{Tenants: 1}}, 3, 0)
	withWords(pop).hints.word[1] = maxDraws - 1
	pop.next(1)
	if n := pop.stream(1).n; n != 1<<31-1 {
		t.Fatalf("count %d, want 2^31-1", n)
	}
	pop.hints.Put(1, msg.Hint{Ino: 1, Authority: 1})
	if rec := pop.hints.record(1); rec == nil || rec[0] != 1<<31-1 {
		t.Fatalf("the claim did not move the count into the record: %v", rec)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("a draw past 2^31-1 did not panic")
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
	withWords(pop).wheel.Start()
	eng.RunUntil(wheelTick / 2)
	pop.rateMul = 1e-300
	r := pop.stream(0)
	pop.rearm(0, 0, &r)
	if n := pop.stream(0).n; n != 1 {
		t.Fatalf("rearm stored count %d, want 1", n)
	}
}

// TestPopulationHeapBytesPerClient measures what a silent client costs
// on the heap once its population has declared its horizon — its bit
// and share of a rank, its word if it can arrive by the horizon (the
// draw count until it is first answered) and its share of the wheel's
// nodes — and holds FootprintBytes, which the bench's bytes_per_client
// row and the clients plan's B/client column report, to that
// measurement. Dense: every client can arrive by the horizon, so each
// holds a word and the wheel keeps a node per client (10.26 B a client).
// Sparse: ~9 % can, so only they are reserved a word and a pooled node
// (1.63 B a client). Gates are the measured values plus ~10 %.
func TestPopulationHeapBytesPerClient(t *testing.T) {
	const clients = 1_000_000
	_, homes := popTree(t, 4)
	tn := workload.NewTenants(workload.TenantConfig{Tenants: 16}, clients, homes, 1)
	for _, tc := range []struct {
		name    string
		rate    float64
		horizon sim.Time
		gate    float64
	}{
		{"dense", 0, 10 * sim.Second, 11},
		{"sparse", 0.0012, 80 * sim.Second, 1.8},
	} {
		eng := sim.NewEngine()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		pop := NewPopulation(PopulationConfig{Clients: clients, Rate: tc.rate}, eng, &echoNet{n: 4}, partition.FileHash{N: 4}, tn, 0, 1)
		pop.SetHorizon(tc.horizon)
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		reported := float64(pop.FootprintBytes() - tn.FootprintBytes())
		t.Logf("%s: %.2f heap B/client, FootprintBytes %.2f", tc.name, heap/clients, reported/clients)
		if bpc := heap / clients; bpc > tc.gate {
			t.Errorf("%s: population holds %.1f heap B/client, gate %g", tc.name, bpc, tc.gate)
		}
		if math.Abs(reported-heap) > 0.05*heap {
			t.Errorf("%s: FootprintBytes reports %.0f B without the tenants, the heap grew %.0f B", tc.name, reported, heap)
		}
		runtime.KeepAlive(pop)
	}
}

// holdNet keeps every request sent and answers none: the test delivers
// replies itself.
type holdNet struct{ sent []*msg.Request }

func (h *holdNet) NumMDS() int                  { return 4 }
func (h *holdNet) Send(_ int, req *msg.Request) { h.sent = append(h.sent, req) }

// TestPopulationRecyclesOnlyOnceSentRequests: a retransmitted request
// has a second copy in flight after its first reply is accepted, so its
// struct must not serve the next arrival — the stale copy would be
// served as that arrival and its reply would complete it early. While
// retries are armed even a request answered on its first send is not
// recycled: an MDS forward watchdog may still hold it.
func TestPopulationRecyclesOnlyOnceSentRequests(t *testing.T) {
	cfg := PopulationConfig{
		Clients: 1, Rate: 1e-3,
		Tenant:  workload.TenantConfig{Tenants: 1, WorkingSet: 8},
		MixStat: 1,
	}
	_, homes := popTree(t, 1)
	eng := sim.NewEngine()
	net := &holdNet{}
	pop := withWords(NewPopulation(cfg, eng, net, partition.FileHash{N: 4}, workload.NewTenants(cfg.Tenant, 1, homes, 3), 10*sim.Millisecond, 3))
	reply := func(req *msg.Request) bool {
		rep := msg.Reply{Req: req, Client: req.Client, ID: req.ID, Issued: req.Issued, Completed: eng.Now()}
		return pop.OnReply(&rep)
	}

	pop.arrive(0)
	eng.RunUntil(15 * sim.Millisecond) // the retry timer resends it
	if len(net.sent) != 2 || net.sent[0] != net.sent[1] || pop.Counts().Retries != 1 {
		t.Fatalf("want one request sent twice, got %d sends and %d retries", len(net.sent), pop.Counts().Retries)
	}
	resent := net.sent[0]
	if !reply(resent) {
		t.Fatal("the first copy's reply was refused")
	}
	pop.arrive(0)
	if net.sent[2] == resent {
		t.Fatal("the next arrival reuses a struct whose second copy is still in flight")
	}
	if reply(resent) {
		t.Error("the second copy's reply was accepted")
	}

	once := net.sent[2]
	if !reply(once) {
		t.Fatal("a once-sent request's reply was refused")
	}
	pop.arrive(0)
	if net.sent[3] == once {
		t.Error("a request answered on its first send was recycled while retries are armed")
	}
	if pop.Counts().Completed != 2 {
		t.Errorf("completed = %d, want 2", pop.Counts().Completed)
	}
}

// logNet is echoNet that also logs each send's client and instant.
type logNet struct {
	*echoNet
	log []int64
}

func (l *logNet) Send(i int, req *msg.Request) {
	l.log = append(l.log, int64(req.Client), int64(l.eng.Now()))
	l.echoNet.Send(i, req)
}

// storedNow says, for every client of pop, whether an arming pass now
// would store its next arrival on a wheel that ends at the horizon h:
// the inter-arrival its stream draws next, rounded up to a whole tick
// (one at least), falls at or before h.
func storedNow(pop *Population, h sim.Time) []bool {
	out := make([]bool, pop.Clients())
	last := (h - pop.eng.Now()) / wheelTick
	tn := 0
	for li := range out {
		tn = pop.tenants.TenantFrom(tn, li)
		r := pop.stream(int32(li))
		d := pop.interArrival(tn, &r)
		out[li] = max(1, (d+wheelTick-1)/wheelTick) <= last
	}
	return out
}

// TestPopulationHorizonIsInvisible: a population that declared its
// horizon — its wheel pooled, the arrivals due after the horizon
// dropped — sends what one without a horizon sends, from the same
// clients at the same instants, across a Stop/Resume, and leaves every
// client's draw count where it is: a dropped arrival's draw is taken.
// Its reservation holds every timer, and stopped, it ticks past the
// horizon without tripping the wheel's guard. Only a client whose
// arrival an arming pass stored holds a hint-table word: after Start
// exactly those, after the Resume those and the clients that held one
// before, and the Resume gives words to clients that had none.
func TestPopulationHorizonIsInvisible(t *testing.T) {
	cfg := PopulationConfig{
		Clients: 20000, Rate: 0.05,
		Tenant:     workload.TenantConfig{Tenants: 4, FileSkew: 1, WorkingSet: 16},
		DiurnalAmp: 0.3, BurstProb: 0.1,
	}
	const h = 4 * sim.Second
	run := func(horizon bool) (*Population, *logNet) {
		eng, pop, echo := popFixture(t, cfg, 5, 300*sim.Microsecond)
		net := &logNet{echoNet: echo}
		pop.reqs.net = net
		if horizon {
			pop.SetHorizon(h)
			if pop.wheel.FootprintBytes() >= 6*int64(cfg.Clients) {
				t.Fatalf("a sparse population's wheel holds %d B, no less than a node per client", pop.wheel.FootprintBytes())
			}
		}
		reserved := pop.wheel.FootprintBytes()
		// held says whether each client holds a word as it should: one
		// named by stored, or one that held it before.
		held := make([]bool, cfg.Clients)
		check := func(when string, stored []bool) {
			gained := 0
			for li, s := range stored {
				want := !horizon || s || held[li]
				if got := pop.hints.slot(li) >= 0; got != want {
					t.Fatalf("horizon %v, after %s: client %d holds a word: %v, want %v", horizon, when, li, got, want)
				}
				if want && !held[li] {
					gained++
				}
				held[li] = want
			}
			if horizon && gained == 0 {
				t.Fatalf("after %s no client gained a word", when)
			}
		}
		stored := storedNow(pop, h)
		pop.Start()
		check("Start", stored)
		eng.RunUntil(h / 2)
		pop.Stop()
		eng.RunUntil(h/2 + 100*sim.Millisecond)
		stored = storedNow(pop, h)
		pop.Resume()
		check("Resume", stored)
		eng.RunUntil(h)
		pop.Stop()
		eng.RunUntil(h + 2*sim.Second)
		if horizon && pop.wheel.FootprintBytes() != reserved {
			t.Fatalf("the wheel grew from the %d B reserved to %d B", reserved, pop.wheel.FootprintBytes())
		}
		return pop, net
	}
	plain, plainNet := run(false)
	bounded, boundedNet := run(true)
	if plain.Counts().Issued == 0 || plain.Counts().Issued != bounded.Counts().Issued || plain.Counts().Completed != bounded.Counts().Completed {
		t.Fatalf("issued %d/%d, completed %d/%d without and with a horizon",
			plain.Counts().Issued, bounded.Counts().Issued, plain.Counts().Completed, bounded.Counts().Completed)
	}
	if !slices.Equal(plainNet.log, boundedNet.log) {
		t.Fatal("with a horizon the population sends from other clients or at other instants")
	}
	for li := range cfg.Clients {
		if a, b := plain.stream(int32(li)).n, bounded.stream(int32(li)).n; a != b {
			t.Fatalf("client %d: %d draws without a horizon, %d with", li, a, b)
		}
	}
	if words := len(bounded.hints.word); words*3 > cfg.Clients {
		t.Fatalf("with a horizon %d of %d clients hold a word", words, cfg.Clients)
	}
}

// TestArrivalWithoutAWordPanics: a client an arming pass gave no word
// cannot arrive or keep a count; the panic names it.
func TestArrivalWithoutAWordPanics(t *testing.T) {
	cfg := PopulationConfig{Clients: 1000, Rate: 0.01, Tenant: workload.TenantConfig{Tenants: 2}}
	_, pop, _ := popFixture(t, cfg, 3, 0)
	pop.SetHorizon(sim.Second)
	pop.Start()
	li := -1
	for c := range cfg.Clients {
		if pop.hints.slot(c) < 0 {
			li = c
			break
		}
	}
	if li < 0 {
		t.Fatal("every client holds a word")
	}
	want := "client " + strconv.Itoa(li) + " "
	for name, f := range map[string]func(){
		"arrive": func() { pop.arrive(int32(li)) },
		"keep": func() {
			r := pop.stream(int32(li))
			pop.keep(int32(li), &r)
		},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, want) {
					t.Errorf("%s: recovered %q, want a panic naming %q", name, msg, want)
				}
			}()
			f()
		}()
	}
}

// TestPopulationRestoreIsCanonical: a sparse population, paused after a
// Resume whose re-arm gave words to clients that had none at Start, is
// checkpointed and read into a fresh one. Every count reads back; the
// restored table gives a word to exactly the clients whose count is not
// the least or that hold a record, keeping the reservation; it writes
// the bytes it was read from; and resumed, it sends what the original
// sends.
func TestPopulationRestoreIsCanonical(t *testing.T) {
	cfg := PopulationConfig{
		Clients: 20000, Rate: 0.05,
		Tenant:  workload.TenantConfig{Tenants: 4, FileSkew: 1, WorkingSet: 16},
		MixStat: 1,
	}
	const h = 4 * sim.Second
	tree, _ := popTree(t, 1)
	build := func() (*sim.Engine, *Population, *logNet) {
		eng, pop, echo := popFixture(t, cfg, 5, 300*sim.Microsecond)
		net := &logNet{echoNet: echo}
		pop.reqs.net = net
		pop.SetHorizon(h)
		return eng, pop, net
	}
	encode := func(pop *Population) []byte {
		w := snap.NewWriter()
		snap.Encoder(w).Section("population", func(c *snap.Codec) { pop.Snap(c, tree) })
		return w.Bytes()
	}
	pause := func(eng *sim.Engine, pop *Population, at sim.Time) {
		eng.RunUntil(at)
		pop.Stop()
		eng.RunUntil(at + 100*sim.Millisecond)
	}

	eng, pop, net := build()
	pop.Start()
	atStart := len(pop.hints.word)
	pause(eng, pop, h/4)
	pop.Resume()
	if len(pop.hints.word) <= atStart {
		t.Fatalf("the Resume gave no client a word: %d words, %d at Start", len(pop.hints.word), atStart)
	}
	pause(eng, pop, h/2)
	data := encode(pop)

	eng2, pop2, net2 := build()
	reserved := cap(pop2.hints.word)
	eng2.RunUntil(eng.Now())
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	dec := snap.Decoder(r)
	dec.Section("population", func(c *snap.Codec) { pop2.Snap(c, tree) })
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	least := uint32(maxDraws)
	for li := range int32(cfg.Clients) {
		least = min(least, pop.stream(li).n)
	}
	for li := range int32(cfg.Clients) {
		a, b := pop.stream(li), pop2.stream(li)
		if a.n != b.n || (a.rec == nil) != (b.rec == nil) || pop.hints.Len(int(li)) != pop2.hints.Len(int(li)) {
			t.Fatalf("client %d: count %d, record %v read back as count %d, record %v", li, a.n, a.rec != nil, b.n, b.rec != nil)
		}
		if held, want := b.i >= 0, a.n != least || a.rec != nil; held != want {
			t.Fatalf("client %d (count %d, least %d, record %v): restored with a word %v", li, a.n, least, a.rec != nil, held)
		}
	}
	if cap(pop2.hints.word) != max(reserved, len(pop2.hints.word)) {
		t.Errorf("restored word capacity %d, want the reservation %d or the words held %d", cap(pop2.hints.word), reserved, len(pop2.hints.word))
	}
	if again := encode(pop2); !bytes.Equal(again, data) {
		t.Fatalf("the restored population writes %d bytes, not the %d it was read from", len(again), len(data))
	}

	sent := len(net.log)
	pop.Resume()
	pop2.Resume()
	eng.RunUntil(h)
	eng2.RunUntil(h)
	if !slices.Equal(net.log[sent:], net2.log) || len(net2.log) == 0 {
		t.Fatalf("after the restore the population sends %d entries, the original %d, or others", len(net2.log), len(net.log)-sent)
	}
}
