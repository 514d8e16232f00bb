package client

import (
	"math"
	"slices"

	"dynmds/internal/lease"
	"dynmds/internal/metrics"
	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

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
// the op). Scenario acts (ScheduleActs) retarget rate, mix, and hotspot
// at exact virtual times without adding steady-state work: the arrival
// path reads plain phase fields.
type Population struct {
	cfg     PopulationConfig
	net     Network
	strat   partition.Strategy
	tenants *workload.Tenants
	hints   *HintTable
	baseCum [numMixOps]float64
	acts    []Act
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

	pool    []*msg.Request // free list; grows to max outstanding, then steady
	seq     uint64         // monotonic request ids
	nameSeq int

	// Phase state, rewritten at act boundaries and read on every
	// arrival: the effective rate multiplier, cumulative mix
	// thresholds, and hotspot redirect.
	rateMul float64
	cum     [numMixOps]float64
	hot     *namespace.Inode
	hotFrac float64

	actStats []actStat
	curLat   *metrics.LatHist // the open act's latency histogram; nil outside acts

	issued    uint64
	completed uint64

	// Lease-plane counters: local serves, plus ops landing on the active
	// act's hotspot target (served locally vs remotely).
	leaseHits uint64
	hotLocal  uint64
	hotRemote uint64

	// stopped suppresses new arrivals (Drain); pending wheel timers
	// still fire but issue nothing and do not rearm.
	stopped bool

	// Churn ring (MixUnlink > 0 only): run-created files eligible for
	// unlink, consumed FIFO so every created file is eventually removed.
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

	// Retry escalation (EnableRetries; fault runs only): outstanding
	// requests keyed by request id, each a boxed record carrying the
	// escalation state the flyweight slabs deliberately omit. Nil on
	// fault-free runs, where the arrival path stays allocation-free.
	retry        map[uint64]*openRetry
	retryTimeout sim.Time
	retries      uint64
	timedOut     uint64
}

// openRetry is one outstanding open-loop request's retry box.
type openRetry struct {
	req      *msg.Request
	li       int32
	attempts int
}

// NewPopulation builds the traffic plane on eng. Deterministic for
// (cfg, seed).
func NewPopulation(cfg PopulationConfig, eng *sim.Engine, netw Network, strat partition.Strategy, tenants *workload.Tenants, seed int64) *Population {
	cfg = cfg.withDefaults()
	if cfg.Clients < 1 {
		panic("client: population with no clients")
	}
	p := &Population{
		cfg:     cfg,
		net:     netw,
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
// hint-table word until it is first answered, then in its record.
func (p *Population) origin(li int) uint64 {
	return mix64(p.seed ^ mix64(uint64(li)+gamma))
}

// maxDraws is the most draws a client may take: its count shares a word
// with the hint-record flag.
const maxDraws = hintRecord - 1

// stream is a cursor over one client's RNG, with the client's word
// resolved once: derived once per arrival, drawn from, and its count
// stored back once (keep). rec is the client's hint record, nil until
// the client is first answered; direct looks hints up in it.
type stream struct {
	state uint64
	n     uint32
	rec   []uint32
}

func (p *Population) stream(li int32) stream {
	rec := p.hints.record(int(li))
	n := p.hints.word[li]
	if rec != nil {
		n = rec[0]
	}
	return stream{state: p.origin(int(li)) + uint64(n)*gamma, n: n, rec: rec}
}

// keep stores the stream's count back where client li keeps it. No
// record may be claimed for li between stream and keep.
func (p *Population) keep(li int32, r *stream) {
	if r.rec != nil {
		r.rec[0] = r.n
	} else {
		p.hints.word[li] = r.n
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

// Start arms every client's first arrival and starts the wheel. Each
// client's first draw comes from its own stream, so the herd
// de-synchronises by construction.
func (p *Population) Start() { p.armAll() }

// armAll starts the wheel and arms every client (Start, and Resume
// after a checkpoint). Ids ascend, so the tenant is a cursor, not a
// search per client.
func (p *Population) armAll() {
	p.wheel.Start()
	tn := 0
	for li := range p.hints.word {
		tn = p.tenants.TenantFrom(tn, li)
		rng := p.stream(int32(li))
		p.rearm(int32(li), tn, &rng)
	}
}

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

// rearm schedules the client's next arrival: an exponential inter-
// arrival at the rate frozen at draw time, capped at an hour, through
// the wheel. It takes the last draw of an arrival from rng and stores
// the count. tn is the client's tenant, which every caller already holds.
func (p *Population) rearm(li int32, tn int, rng *stream) {
	u := uniform(rng.next())
	p.keep(li, rng)
	if u <= 0 {
		u = 1e-18
	}
	// Cap in seconds: a tiny rate multiplier makes the quotient overflow
	// sim.Time.
	sec := -math.Log(u) / (p.rate(tn, p.eng.Now()) * p.rateMul)
	if sec > maxInterArrival.Seconds() {
		sec = maxInterArrival.Seconds()
	}
	p.wheel.Schedule(li, sim.FromSeconds(sec))
}

// getRequest reuses a drained request or allocates one. Open-loop
// clients never retransmit, so exactly one copy of each request exists
// and recycling on reply is unconditionally safe.
func (p *Population) getRequest() *msg.Request {
	if n := len(p.pool); n > 0 {
		req := p.pool[n-1]
		p.pool[n-1] = nil
		p.pool = p.pool[:n-1]
		gen := req.Gen + 1
		*req = msg.Request{}
		req.Gen = gen
		return req
	}
	return &msg.Request{}
}

// arrive is the wheel's fire callback: draw the op, direct it, arm the
// next arrival, and send. Allocation-free except for Create. The send
// comes last because a reply may be delivered within it and claim the
// client's hint record, which moves the count rearm stores.
func (p *Population) arrive(li int32) {
	if p.stopped {
		return
	}
	g := int(li)
	tn := p.tenants.ClientTenant(g)
	rng := p.stream(li)

	req := p.getRequest()
	p.seq++
	req.ID = p.seq
	req.Client = g
	req.Issued = p.eng.Now()
	req.Via = -1

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
	// Hotspot acts redirect a fraction of draws to one target. The
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
	if l := p.lease; l != nil && l.Tab != nil && !req.Op.IsUpdate() {
		ino := req.Target.ID
		if l.Tab.Valid(g, ino, l.Reg.Gen(ino), p.eng.Now()) {
			p.issued++
			p.completed++
			p.leaseHits++
			if req.Target == p.hot {
				p.hotLocal++
			}
			if p.curLat != nil {
				p.curLat.Observe(0)
			}
			p.pool = append(p.pool, req)
			p.rearm(li, tn, &rng)
			return
		}
	}

	mds := p.direct(rng.rec, req, rng.next())
	p.issued++
	if p.retry != nil {
		r := &openRetry{req: req, li: li}
		p.retry[req.ID] = r
		p.eng.AfterCall(p.retryTimeout, popRetryFire, p, r)
	}
	p.rearm(li, tn, &rng)
	p.net.Send(mds, req)
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

// popRetryFire is the retry-escalation timer: retransmit with doubled
// backoff, or retire the op as timed out once attempts are exhausted
// (or the population is draining). Retiring recycles the request; a
// late reply for a retired id misses the retry map and is dropped
// without touching the pool, so a struct can never be pooled twice.
func popRetryFire(a, b any) {
	p := a.(*Population)
	r := b.(*openRetry)
	if p.retry[r.req.ID] != r {
		return // completed (or already retired); timer is stale
	}
	if p.stopped || r.attempts >= maxRetries {
		delete(p.retry, r.req.ID)
		p.timedOut++
		p.pool = append(p.pool, r.req)
		return
	}
	r.attempts++
	p.retries++
	// Resteer through the current hint state: the authority may have
	// moved (or died) since the original send.
	mds := p.direct(p.hints.record(int(r.li)), r.req, p.next(r.li))
	p.net.Send(mds, r.req)
	p.eng.AfterCall(retryBackoff(p.retryTimeout, r.attempts), popRetryFire, p, r)
}

// popName formats p0_<seq> without fmt; the retained string is the new
// entry's name (inherent allocation of the Create op). The prefix is
// part of the name the hash strategies place and the digests cover.
func popName(seq int) string {
	var buf [24]byte
	b := append(buf[:0], "p0_"...)
	b = appendInt(b, seq)
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [12]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// direct steers req like the closed-loop client (steer), from the
// client's hint record rec; the random fallback is u, a word already
// drawn from the client's stream.
func (p *Population) direct(rec []uint32, req *msg.Request, u uint64) int {
	if mds, ok := steer(p.strat, p.hints, rec, req); ok {
		return mds
	}
	return int(u % uint64(p.net.NumMDS()))
}

// OnReply completes one arrival: absorb hints and a lease grant if one
// rides the reply, recycle the request. Allocation-free (pool growth
// amortises to zero once the outstanding high-water mark is reached). It
// reports whether the reply was accepted: the caller records a
// completion's response time only then.
func (p *Population) OnReply(rep *msg.Reply) bool {
	if p.retry != nil {
		r, ok := p.retry[rep.ID]
		if !ok || r.req != rep.Req {
			// A duplicate reply to a retransmitted (or already retired)
			// request: the first copy completed it and recycled the
			// struct, so this one must not touch the pool or counters.
			return false
		}
		delete(p.retry, rep.ID)
	}
	p.completed++
	if p.curLat != nil {
		p.curLat.Observe(rep.Latency())
	}
	if len(rep.Hints) > 0 {
		rec := p.hints.claim(rep.Client)
		for _, h := range rep.Hints {
			p.hints.put(rec, h)
		}
	}
	if req := rep.Req; req != nil {
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
		// Install a granted lease at receipt: lifetime runs from now,
		// and the generation snapshotted at the authority keeps a grant
		// that raced a recall from resurrecting the lease.
		if rep.Leased && p.lease != nil && p.lease.Tab != nil {
			p.lease.Tab.Install(rep.Client, req.Target.ID, rep.LeaseGen,
				p.eng.Now()+p.lease.Cfg.Duration)
		}
		p.pool = append(p.pool, req)
	}
	return true
}

// AttachLeasePlane hands the population the coherent client-cache plane.
// Call before Start.
func (p *Population) AttachLeasePlane(l *lease.Plane) { p.lease = l }

// EnableRetries arms the boxed retry-escalation cache: unanswered
// requests are retransmitted with capped exponential backoff
// (retryBackoff) and retired as timed out after maxRetries attempts. Only
// fault schedules need this — it buys crash survival at the cost of one
// small heap box per outstanding request.
func (p *Population) EnableRetries(timeout sim.Time) {
	if timeout <= 0 {
		panic("client: EnableRetries with no timeout")
	}
	p.retry = make(map[uint64]*openRetry)
	p.retryTimeout = timeout
}

// Stop suppresses further arrivals (Drain): pending wheel timers fire
// into a no-op and outstanding retry chains retire at their next
// deadline, so a drained run leaves no in-flight population state.
func (p *Population) Stop() { p.stopped = true }

// Issued returns the requests the population has issued.
func (p *Population) Issued() uint64 { return p.issued }

// Completed returns accepted replies.
func (p *Population) Completed() uint64 { return p.completed }

// LeaseHits counts arrivals served locally from a valid lease.
func (p *Population) LeaseHits() uint64 { return p.leaseHits }

// HotspotOps returns ops that landed on an act's hotspot target, split
// into locally leased serves and remote (MDS) completions.
func (p *Population) HotspotOps() (local, remote uint64) { return p.hotLocal, p.hotRemote }

// Retries counts retransmissions by the retry escalation.
func (p *Population) Retries() uint64 { return p.retries }

// TimedOut counts ops retired after exhausting their retry budget.
func (p *Population) TimedOut() uint64 { return p.timedOut }

// RetryOutstanding counts boxed requests still awaiting a reply or a
// retirement deadline; zero after a drain.
func (p *Population) RetryOutstanding() int { return len(p.retry) }

// FootprintBytes returns the structural per-population memory: wheel
// intrusive lists (6 B/client), the shared hint table (a 4 B/client word
// holding the draw count or naming a record, plus the chunks of records
// allocated so far, so it grows as clients are first answered), the
// tenant model, and the lease slab when attached. Request pools and
// engine state are excluded (they scale with outstanding requests, not
// with the population size).
func (p *Population) FootprintBytes() int64 {
	b := p.wheel.FootprintBytes() + p.hints.FootprintBytes() + p.tenants.FootprintBytes()
	if p.lease != nil && p.lease.Tab != nil {
		// The lease slab is per-client state and counts against the
		// bytes/client budget; the shared registry scales with the
		// namespace, not the population, and is reported separately.
		b += int64(p.lease.Tab.FootprintBytes())
	}
	return b
}
