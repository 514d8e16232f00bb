package client

import (
	"math"
	"slices"
	"strconv"

	"dynmds/internal/lease"
	"dynmds/internal/metrics"
	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// numMixOps is the op vocabulary size of the open-loop mix, in canonical
// draw order: stat, readdir, chmod, create, rename, unlink.
const numMixOps = 6

// PopulationConfig parameterises the open-loop traffic plane.
type PopulationConfig struct {
	// Clients is the population size.
	Clients int
	// Rate is the per-client mean arrival rate in ops/sec (Poisson base
	// rate, before diurnal/burst modulation). Zero means 10.
	Rate float64
	// Ways is the per-client way count in the shared hint table
	// (default 2: a 16-byte record per client once it is answered).
	Ways int
	// Tenant shapes the tenant split and working sets.
	Tenant workload.TenantConfig

	// DiurnalAmp modulates the base rate sinusoidally per tenant:
	// λ(t) = Rate·(1 + DiurnalAmp·sin(2π(t/diurnalPeriod + φ_tenant))).
	// Zero disables.
	DiurnalAmp float64
	// BurstProb is the chance per (tenant, epoch) of a burst that
	// multiplies the tenant's rate by burstFactor for one burstEpoch.
	// Deterministic in (tenant, epoch).
	BurstProb float64

	// Op mix weights; an all-zero mix defaults to Stat 80, Readdir 10,
	// Chmod 8, Create 2, Rename 0, Unlink 0. (No Open/Close: the
	// open-loop plane never issues an op whose accounting depends on a
	// paired follow-up. Rename moves a working-set entry into another
	// tenant's directory — the cross-authority migration op. Unlink
	// removes a frozen base file from the reserve UnlinkReserve sizes,
	// then a file this run created earlier — the churn op that ages the
	// namespace; it never touches the frozen working sets the tenant
	// alias tables point into, so create/unlink churn can run for
	// virtual days without invalidating a single tenant pointer.)
	MixStat, MixReaddir, MixChmod, MixCreate, MixRename, MixUnlink float64
}

// The traffic plane's fixed shape: the timer-wheel granularity every
// arrival timestamp quantises to, the longest inter-arrival, the diurnal
// period, and a burst's multiplier and length.
const (
	wheelTick       = sim.Millisecond
	maxInterArrival = sim.Hour
	diurnalPeriod   = 60 * sim.Second
	burstFactor     = 4
	burstEpoch      = 10 * sim.Second
)

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.Rate <= 0 {
		c.Rate = 10
	}
	if c.Ways <= 0 {
		c.Ways = 2
	}
	if c.MixStat+c.MixReaddir+c.MixChmod+c.MixCreate+c.MixRename+c.MixUnlink <= 0 {
		c.MixStat, c.MixReaddir, c.MixChmod, c.MixCreate = 80, 10, 8, 2
	}
	return c
}

// UnlinkReserve is how many frozen base files a population of Clients
// should hold in reserve for its unlinks over horizon: the expected
// unlink draws, at least 1024, and none without an unlink
// weight. Base unlinks are what tombstone the overlay; without them,
// churn only recycles run-created inodes. The cluster layer picks the
// files (it owns the tree walk) and hands them to SeedBaseVictims.
func (c PopulationConfig) UnlinkReserve(horizon sim.Time) int {
	d := c.withDefaults()
	if d.MixUnlink <= 0 {
		return 0
	}
	total := d.MixStat + d.MixReaddir + d.MixChmod + d.MixCreate + d.MixRename + d.MixUnlink
	expect := d.Rate * float64(d.Clients) * horizon.Seconds() * d.MixUnlink / total
	return max(int(expect), 1024)
}

// EffectiveMix returns the defaulted op-mix weights in canonical draw
// order (stat, readdir, chmod, create, rename, unlink) — what an
// all-zero act mix inherits. The cluster layer uses it to validate
// hotspot targets.
func (c PopulationConfig) EffectiveMix() [numMixOps]float64 {
	d := c.withDefaults()
	return [numMixOps]float64{d.MixStat, d.MixReaddir, d.MixChmod, d.MixCreate, d.MixRename, d.MixUnlink}
}

// cumMix folds mix weights into cumulative draw thresholds in canonical
// op order; cum[numMixOps-1] is the total weight. Left-to-right addition
// order matters: it must reproduce the pre-act threshold arithmetic
// bit-for-bit so act-free runs stay golden-identical (a zero unlink
// weight makes cum[4] == cum[5], and the draw x = u·cum[5] with u < 1
// strictly always lands below cum[4] — rename — exactly as before).
func cumMix(stat, readdir, chmod, create, rename, unlink float64) [numMixOps]float64 {
	var cum [numMixOps]float64
	c := stat
	cum[0] = c
	c += readdir
	cum[1] = c
	c += chmod
	cum[2] = c
	c += create
	cum[3] = c
	c += rename
	cum[4] = c
	c += unlink
	cum[5] = c
	return cum
}

// Population is the open-loop flyweight traffic plane: millions of
// clients as dense records in slab arrays, no per-client objects, maps,
// or goroutines. Arrivals are open-loop — a client's next request is
// scheduled by a Poisson draw regardless of whether earlier requests
// have been answered — and flow through a hierarchical timer wheel, so
// pending arrivals never enter the engine's event heap. A client's
// tenant is not stored: it is derived from its id
// (Tenants.ClientTenant).
//
// The hot paths (wheel fire → draw op → direct → send, and reply →
// record → recycle) are allocation-free in steady state; only Create
// and Rename ops allocate (the new entry's name and inode, inherent to
// the op). A phase (SetPhase) retargets rate, mix and hotspot at an
// exact virtual time without adding steady-state work: the arrival
// path reads plain phase fields.
type Population struct {
	cfg     PopulationConfig
	strat   partition.Strategy
	tenants *workload.Tenants
	hints   *HintTable
	baseCum [numMixOps]float64
	seed    uint64 // roots every client's RNG stream (origin)

	// lease, when attached, is the coherent client-cache plane
	// (internal/lease): reads of a validly leased record are served
	// locally with zero fabric hops. Nil leaves the arrival path
	// bit-identical to a build without the plane. Contrast with hints:
	// hints are non-coherent location guesses (a stale hint costs a
	// forward), leases are coherent records (a stale lease is
	// structurally impossible — recall bumps the shared generation the
	// validity check reads).
	lease *lease.Plane

	eng   *sim.Engine
	wheel *sim.Wheel

	// reqs is the population's one request lifecycle; its pool grows to
	// the most requests outstanding at once, then holds steady.
	reqs    Requests
	nameSeq int

	// Phase state, written by SetPhase and read on every arrival: the
	// effective rate multiplier, cumulative mix thresholds, hotspot
	// redirect, and the histogram every completion is observed into
	// (nil: none).
	rateMul float64
	cum     [numMixOps]float64
	hot     *namespace.Inode
	hotFrac float64
	curLat  *metrics.LatHist

	// Lease-plane counters: local serves, plus ops landing on the active
	// act's hotspot target (served locally vs remotely).
	leaseHits uint64
	hotLocal  uint64
	hotRemote uint64

	// Churn ring (MixUnlink > 0, or KeepChurn): run-created files
	// eligible for unlink, consumed FIFO so every created file is
	// eventually removed.
	// Fed on create completion — never on issue, so a timed-out create
	// can never be unlinked — and disjoint by construction from the
	// frozen working sets renames and stats draw from. churnHead indexes
	// the next victim; the slice compacts once half-consumed.
	churnOn   bool
	churn     []*namespace.Inode
	churnHead int

	// Base-victim pool (UnlinkReserve > 0 only): frozen base files reserved
	// for unlink, consumed FIFO before the run-created ring so overlay
	// tombstones accrue from the first unlink draws.
	baseVictims []*namespace.Inode
	baseHead    int
}

// NewPopulation builds the traffic plane on eng, its requests retried
// after retry (zero: never). Deterministic for (cfg, seed).
func NewPopulation(cfg PopulationConfig, eng *sim.Engine, netw Network, strat partition.Strategy, tenants *workload.Tenants, retry sim.Time, seed int64) *Population {
	cfg = cfg.withDefaults()
	if cfg.Clients < 1 {
		panic("client: population with no clients")
	}
	p := &Population{
		cfg:     cfg,
		strat:   strat,
		tenants: tenants,
		hints:   NewHintTable(cfg.Clients, cfg.Ways, true),
		baseCum: cumMix(cfg.MixStat, cfg.MixReaddir, cfg.MixChmod, cfg.MixCreate, cfg.MixRename, cfg.MixUnlink),
		seed:    uint64(seed),
		eng:     eng,
		rateMul: 1,
		churnOn: cfg.MixUnlink > 0,
	}
	p.cum = p.baseCum
	p.wheel = sim.NewWheel(eng, wheelTick, cfg.Clients, p.arrive)
	p.reqs.init(eng, netw, p, retry, 0)
	return p
}

// mix64 is the splitmix64 output permutation: the per-client RNG is one
// uint64 of state advanced by the golden-ratio increment gamma.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// gamma is splitmix64's increment.
const gamma = 0x9E3779B97F4A7C15

// origin is client li's splitmix64 state before its first draw. After n
// draws the state is origin + n·gamma, so a client keeps only n: in its
// hint-table word until it is first answered, then in its record; a
// client without a word has the table's shared count.
func (p *Population) origin(li int) uint64 {
	return mix64(p.seed ^ mix64(uint64(li)+gamma))
}

// maxDraws is the most draws a client may take: its count shares a word
// with the hint-record flag.
const maxDraws = hintRecord - 1

// stream is a cursor over one client's RNG, with the client's word
// resolved once: derived once per arrival, drawn from, and its count
// stored back once (keep). i indexes the client's word, -1 if it holds
// none; rec is the client's hint record, nil until the client is first
// answered; direct looks hints up in it.
type stream struct {
	state uint64
	n     uint32
	i     int
	rec   []uint32
}

func (p *Population) stream(li int32) stream {
	r := stream{n: p.hints.shared, i: p.hints.slot(int(li))}
	if r.i >= 0 {
		r.n, r.rec = p.hints.count(r.i)
	}
	r.state = p.origin(int(li)) + uint64(r.n)*gamma
	return r
}

// keep stores the stream's count back where client li keeps it, which
// only a client holding a word may do. No record may be claimed for li
// between stream and keep.
func (p *Population) keep(li int32, r *stream) {
	switch {
	case r.rec != nil:
		r.rec[0] = r.n
	case r.i < 0:
		panic(noWord(int(li), "keeps a draw count"))
	default:
		p.hints.word[r.i] = r.n
	}
}

// next draws the stream's next uniform word. A count that would reach
// the record flag — some 2·10^8 arrivals from one client — panics
// rather than repeat the stream.
func (r *stream) next() uint64 {
	if r.n == maxDraws {
		panic("client: a client's RNG draw count overflows")
	}
	r.n++
	r.state += gamma
	return mix64(r.state)
}

// next draws client li's next uniform word outside an arrival.
func (p *Population) next(li int32) uint64 {
	r := p.stream(li)
	u := r.next()
	p.keep(li, &r)
	return u
}

// uniform converts a word to [0,1).
func uniform(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// SetHorizon declares h, the instant the run ends, as the wheel's
// horizon: an arrival due after it is drawn and counted but never
// stored, and the wheel panics if it ticks past h before Stop.
// It reserves the wheel's nodes for the clients expected to arrive by h
// from the armed instant (now) — pending timers never increase after
// arming, since each firing re-arms at most its own client — plus six
// standard deviations and 1024, and as many hint-table words: a client
// holds one once an arming pass stores its timer. Call before Start.
func (p *Population) SetHorizon(h sim.Time) {
	p.wheel.SetHorizon(h)
	e := p.firstArrivals(h)
	k := min(p.cfg.Clients, int(e+float64(6*math.Sqrt(e)))+1024)
	p.wheel.Reserve(k)
	p.hints.reserve(k)
}

// firstArrivals is the expected number of clients whose first arrival,
// armed now, falls at or before h: Σ_t n_t·(1 − e^(−λ_t·(h−now))) over
// tenants, each at the rate its clients draw at, or every client once
// the span reaches the inter-arrival cap.
func (p *Population) firstArrivals(h sim.Time) float64 {
	now := p.eng.Now()
	if h-now >= maxInterArrival {
		return float64(p.cfg.Clients)
	}
	span := max(h-now, 0).Seconds()
	e := 0.0
	for tn := range p.tenants.NumTenants() {
		e -= float64(float64(p.tenants.TenantClients(tn)) * math.Expm1(-p.rate(tn, now)*p.rateMul*span))
	}
	return e
}

// Start arms every client's first arrival and starts the wheel. Each
// client's first draw comes from its own stream, so the herd
// de-synchronises by construction.
func (p *Population) Start() { p.armAll() }

// armAll starts the wheel and arms every client (Start, and Resume
// after a checkpoint). It alone grows the set of clients holding a
// hint-table word: a client keeps its word, and gains one when the
// wheel stores its timer; every other client has drawn once, so its
// count stays the shared one. Ids ascend, so the tenant is a cursor,
// not a search per client.
func (p *Population) armAll() {
	p.wheel.Start()
	a := p.hints.arm()
	tn := 0
	for li := range int32(p.cfg.Clients) {
		tn = p.tenants.TenantFrom(tn, int(li))
		// stream's body, with the word's index from the pass, written
		// out: through a call returning the stream, arming two million
		// clients took twice as long (2-CPU Xeon, go test -bench).
		rng := stream{n: p.hints.shared, i: a.next(int(li))}
		if rng.i >= 0 {
			rng.n, rng.rec = p.hints.count(rng.i)
		}
		rng.state = p.origin(int(li)) + uint64(rng.n)*gamma
		if p.wheel.Schedule(li, p.interArrival(tn, &rng)) && rng.i < 0 {
			rng.i = a.gain(int(li))
		}
		if rng.i >= 0 {
			p.keep(li, &rng)
		}
	}
	a.done()
}

// SetPhase retargets the arrival path: rateMul scales the per-client
// rate (0 means unchanged), mix overrides the op-mix weights in
// canonical order (all zero inherits the base mix), hot receives
// hotFrac of the draws as their target (the directory of a create
// storm, the file of a stat crowd), and lat observes every completion,
// lease-local serves included (nil: none). SetPhase(0, [6]float64{},
// nil, 0, nil) is the base phase.
//
// Each client's next inter-arrival is drawn at its previous arrival, so
// a rate change takes effect at the client's first draw after the call:
// one inter-arrival of lag, never a burst of rescheduling work.
func (p *Population) SetPhase(rateMul float64, mix [numMixOps]float64, hot *namespace.Inode, hotFrac float64, lat *metrics.LatHist) {
	p.rateMul = 1
	if rateMul > 0 {
		p.rateMul = rateMul
	}
	p.cum = p.baseCum
	if mix[0]+mix[1]+mix[2]+mix[3]+mix[4]+mix[5] > 0 {
		p.cum = cumMix(mix[0], mix[1], mix[2], mix[3], mix[4], mix[5])
	}
	p.hot, p.hotFrac, p.curLat = hot, hotFrac, lat
}

// KeepChurn feeds the unlink ring from the first completed create, for
// a base mix without unlinks whose phases will draw them. Call before
// Start.
func (p *Population) KeepChurn() { p.churnOn = true }

// Clients returns the population size.
func (p *Population) Clients() int { return p.cfg.Clients }

// SeedBaseVictims queues reserved base-file unlink victims in order.
// Call before Start; the cluster layer picks the victims so the walk
// order — and with it the unlink sequence — is deterministic.
func (p *Population) SeedBaseVictims(victims []*namespace.Inode) {
	p.baseVictims = append(p.baseVictims, victims...)
}

// rate returns the momentary arrival rate λ(t) in ops/sec of a client
// of the given tenant; only diurnal and burst modulation depend on it.
func (p *Population) rate(tenant int, now sim.Time) float64 {
	cfg := &p.cfg
	tn := uint64(tenant)
	r := cfg.Rate
	if cfg.DiurnalAmp > 0 {
		phase := float64(uniform(mix64(tn + 0x5851F42D4C957F2D)))
		x := now.Seconds()/diurnalPeriod.Seconds() + phase
		r *= 1 + float64(cfg.DiurnalAmp*math.Sin(2*math.Pi*x))
	}
	if cfg.BurstProb > 0 {
		epoch := uint64(now / burstEpoch)
		h := mix64(tn*gamma ^ (epoch+1)*0xD1B54A32D192ED03)
		if uniform(h) < cfg.BurstProb {
			r *= burstFactor
		}
	}
	if r < 1e-6 {
		r = 1e-6
	}
	return r
}

// rearm schedules the client's next arrival through the wheel. It takes
// the last draw of an arrival from rng and stores the count. tn is the
// client's tenant, which every caller already holds.
func (p *Population) rearm(li int32, tn int, rng *stream) {
	d := p.interArrival(tn, rng)
	p.keep(li, rng)
	p.wheel.Schedule(li, d)
}

// interArrival draws an exponential inter-arrival from rng at the rate
// frozen at draw time, capped at an hour.
func (p *Population) interArrival(tn int, rng *stream) sim.Time {
	u := uniform(rng.next())
	if u <= 0 {
		u = 1e-18
	}
	// Cap in seconds: a tiny rate multiplier makes the quotient overflow
	// sim.Time.
	sec := -math.Log(u) / (p.rate(tn, p.eng.Now()) * p.rateMul)
	if sec > maxInterArrival.Seconds() {
		sec = maxInterArrival.Seconds()
	}
	return sim.FromSeconds(sec)
}

// arrive is the wheel's fire callback: draw the op, direct it, arm the
// next arrival, and send. Allocation-free except for Create. The send
// comes last because a reply may be delivered within it and claim the
// client's hint record, which moves the count rearm stores.
func (p *Population) arrive(li int32) {
	if p.reqs.stopped {
		return
	}
	g := int(li)
	rng := p.stream(li)
	if rng.i < 0 {
		panic(noWord(g, "arrives"))
	}
	tn := p.tenants.ClientTenant(g)

	req := p.reqs.get(g)

	x := uniform(rng.next()) * p.cum[numMixOps-1]
	switch {
	case x < p.cum[0]:
		req.Op = msg.Stat
		req.Target = p.tenants.File(tn, rng.next(), rng.next())
	case x < p.cum[1]:
		req.Op = msg.Readdir
		req.Target = p.tenants.Dir(tn, rng.next(), rng.next())
	case x < p.cum[2]:
		req.Op = msg.Chmod
		req.Target = p.tenants.File(tn, rng.next(), rng.next())
	case x < p.cum[3]:
		req.Op = msg.Create
		req.Target = p.tenants.Dir(tn, rng.next(), rng.next())
		p.nameSeq++
		req.NewName = popName(p.nameSeq)
	case x < p.cum[4]:
		// Rename: move a working-set entry into another tenant's
		// directory — the cross-authority migration op. The inode
		// survives the move (failed renames are MDS-side no-ops), so
		// working-set and alias-table pointers stay valid.
		req.Op = msg.Rename
		req.Target = p.tenants.File(tn, rng.next(), rng.next())
		dst := tn
		if t := p.tenants.NumTenants(); t > 1 {
			dst = int(rng.next() % uint64(t-1))
			if dst >= tn {
				dst++
			}
		}
		req.DstDir = p.tenants.Dir(dst, rng.next(), rng.next())
		p.nameSeq++
		req.NewName = popName(p.nameSeq)
	default:
		// Unlink: remove a file this run created earlier, oldest first.
		// Until a create has completed there is nothing to remove; the
		// draw degrades to a create with the same draw pattern, seeding
		// the ring.
		if victim := p.churnPop(); victim != nil {
			req.Op = msg.Unlink
			req.Target = victim
		} else {
			req.Op = msg.Create
			req.Target = p.tenants.Dir(tn, rng.next(), rng.next())
			p.nameSeq++
			req.NewName = popName(p.nameSeq)
		}
	}
	// A hotspot phase redirects a fraction of draws to one target. The
	// extra uniform word is drawn only while a hotspot is active, so
	// hotspot-free runs keep their RNG streams (and goldens) intact.
	// Unlinks consume the draw but never redirect: the op must land on
	// the ring victim — retargeting it would remove a working-set entry
	// the tenant alias tables still point at.
	if p.hotFrac > 0 && uniform(rng.next()) < p.hotFrac && req.Op != msg.Unlink {
		req.Target = p.hot
	}

	// A validly leased record is served locally: zero fabric hops, zero
	// latency. The check consumes no randomness and the branch only
	// exists when the plane is attached, so runs without it replay
	// bit-identically.
	if l := p.lease; l != nil && !req.Op.IsUpdate() {
		ino := req.Target.ID
		if l.Tab.Valid(g, ino, l.Reg.Gen(ino), p.eng.Now()) {
			p.reqs.local(req)
			p.leaseHits++
			if req.Target == p.hot {
				p.hotLocal++
			}
			if p.curLat != nil {
				p.curLat.Observe(0)
			}
			p.rearm(li, tn, &rng)
			return
		}
	}

	mds := p.direct(rng.rec, req, rng.next())
	p.rearm(li, tn, &rng)
	p.reqs.send(mds, req)
}

// churnPop takes the oldest unlink-eligible inode, or nil. Reserved
// base victims drain first (they age the overlay), then the ring of
// files this run created.
func (p *Population) churnPop() *namespace.Inode {
	if p.baseHead < len(p.baseVictims) {
		n := p.baseVictims[p.baseHead]
		p.baseVictims[p.baseHead] = nil
		if p.baseHead++; p.baseHead == len(p.baseVictims) {
			p.baseVictims, p.baseHead = nil, 0 // drained: its backing goes
		}
		return n
	}
	if p.churnHead >= len(p.churn) {
		return nil
	}
	n := p.churn[p.churnHead]
	p.churn[p.churnHead] = nil
	p.churnHead++
	// Compact once half the slice is dead, into a new backing once the
	// old one is over four times the backlog, so the ring's footprint
	// tracks the live backlog, not the largest it has been or the
	// cumulative create count.
	if p.churnHead > len(p.churn)/2 && p.churnHead > 64 {
		if live := p.churn[p.churnHead:]; cap(p.churn) > 4*len(live) {
			p.churn = slices.Clone(live)
		} else {
			k := copy(p.churn, live)
			clear(p.churn[k:])
			p.churn = p.churn[:k]
		}
		p.churnHead = 0
	}
	return n
}

// churnPush appends a freshly created file to the unlink ring.
func (p *Population) churnPush(n *namespace.Inode) { p.churn = append(p.churn, n) }

// resend resteers a resend through the client's current hint record
// and a fresh draw from its stream: the authority may have moved, or
// died, since the last send.
func (p *Population) resend(req *msg.Request, _ int) int {
	return p.direct(p.hints.record(req.Client), req, p.next(int32(req.Client)))
}

// abandoned: an open-loop client's arrivals do not wait on its requests.
func (p *Population) abandoned() {}

// popName formats p0_<seq> without fmt; the retained string is the new
// entry's name (inherent allocation of the Create op). The prefix is
// part of the name the hash strategies place and the digests cover.
func popName(seq int) string {
	var buf [24]byte
	b := strconv.AppendInt(append(buf[:0], "p0_"...), int64(seq), 10)
	return string(b)
}

// direct steers req like the closed-loop client (steer), from the
// client's hint record rec; the random fallback is u, a word already
// drawn from the client's stream.
func (p *Population) direct(rec []uint32, req *msg.Request, u uint64) int {
	if mds, ok := steer(p.strat, p.hints, rec, req); ok {
		return mds
	}
	return int(u % uint64(p.reqs.net.NumMDS()))
}

// OnReply completes one arrival: absorb hints, and a lease grant if one
// rides the reply. Allocation-free. It reports whether the lifecycle
// accepted the reply: the caller records a completion's response time
// only then.
func (p *Population) OnReply(rep *msg.Reply) bool {
	if !p.reqs.accept(rep) {
		return false
	}
	if p.curLat != nil {
		p.curLat.Observe(rep.Latency())
	}
	if len(rep.Hints) > 0 {
		rec := p.hints.claim(rep.Client)
		for _, h := range rep.Hints {
			p.hints.put(rec, h)
		}
	}
	req := rep.Req
	if req.Target == p.hot {
		p.hotRemote++
	}
	// Feed the churn ring with the completed create's inode. The
	// authority applied the mutation before replying, so the parent's
	// index already holds the new entry and the lookup is read-only.
	// Timed-out creates never reach here, so they can never be drawn
	// as unlink victims.
	if p.churnOn && req.Op == msg.Create {
		if c, ok := req.Target.LookupChild(req.NewName); ok && !c.IsDir() {
			p.churnPush(c)
		}
	}
	// Install a granted lease at receipt: lifetime runs from now, and
	// the generation snapshotted at the authority keeps a grant that
	// raced a recall from resurrecting the lease.
	if rep.Leased && p.lease != nil {
		p.lease.Tab.Install(rep.Client, req.Target.ID, rep.LeaseGen,
			p.eng.Now()+p.lease.Duration)
	}
	return true
}

// AttachLeasePlane hands the population the coherent client-cache plane.
// Call before Start.
func (p *Population) AttachLeasePlane(l *lease.Plane) { p.lease = l }

// Stop ends arrivals, at the run's end and at a checkpoint: the wheel
// stops ticking, so no pending timer fires and it may outlive its
// horizon, and outstanding retry chains retire at their next deadline,
// so a drained run leaves no in-flight population state. Resume
// restarts a stopped population.
func (p *Population) Stop() {
	p.reqs.stopped = true
	p.wheel.Stop()
}

// Counts returns what the population's request lifecycle has done.
func (p *Population) Counts() Counts { return p.reqs.Counts }

// LeaseHits counts arrivals served locally from a valid lease.
func (p *Population) LeaseHits() uint64 { return p.leaseHits }

// HotspotOps returns ops that landed on an act's hotspot target, split
// into locally leased serves and remote (MDS) completions.
func (p *Population) HotspotOps() (local, remote uint64) { return p.hotLocal, p.hotRemote }

// FootprintBytes returns the structural per-population memory: the
// wheel's nodes (6 B/client, or 10 B per pooled node when few clients
// can arrive before the horizon), the shared hint table (a bit and a
// share of a rank per client, a 4-B word holding the draw count or
// naming a record for each client that can arrive, plus the chunks of
// records allocated so far, so it grows as clients are first answered),
// the tenant model, and the lease slab when attached. Request pools and
// engine state are excluded (they scale with outstanding requests, not
// with the population size).
func (p *Population) FootprintBytes() int64 {
	b := p.wheel.FootprintBytes() + p.hints.FootprintBytes() + p.tenants.FootprintBytes()
	if p.lease != nil {
		// The lease slab is per-client state and counts against the
		// bytes/client budget; the shared registry scales with the
		// namespace, not the population, and is reported separately.
		b += int64(p.lease.Tab.FootprintBytes())
	}
	return b
}
