package client

import (
	"math"

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
	// (default 2: 16 bytes of location knowledge per client).
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
	// removes a file this run created earlier — the churn op of the
	// endurance plane; it never touches the frozen working sets the
	// tenant alias tables point into, so create/unlink churn can run
	// for virtual days without invalidating a single tenant pointer.)
	MixStat, MixReaddir, MixChmod, MixCreate, MixRename, MixUnlink float64

	// ChurnBase reserves this many frozen base files — outside every
	// tenant working set, so no alias-table pointer ever dangles — as
	// unlink victims, consumed before the run-created ring. Base unlinks
	// are what tombstone the overlay: without them, churn only recycles
	// run-created inodes and the aged-overlay degradation the endurance
	// plane measures never materialises. The cluster layer selects the
	// victims (it owns the tree walk) via SeedBaseVictims.
	ChurnBase int
}

// The traffic plane's fixed shape: the timer-wheel granularity every
// arrival timestamp quantises to, the diurnal period, and a burst's
// multiplier and length.
const (
	wheelTick     = sim.Millisecond
	diurnalPeriod = 60 * sim.Second
	burstFactor   = 4
	burstEpoch    = 10 * sim.Second
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
// have been answered — and flow through a hierarchical timer wheel per
// shard, so pending arrivals never enter the engine's event heap.
//
// The hot paths (wheel fire → draw op → direct → send, and reply →
// record → recycle) are allocation-free in steady state; only Create
// and Rename ops allocate (the new entry's name and inode, inherent to
// the op). Scenario acts (ScheduleActs) retarget rate, mix, and hotspot
// at exact virtual times without adding steady-state work: the arrival
// path reads plain per-shard phase fields.
type Population struct {
	cfg     PopulationConfig
	net     Network
	strat   partition.Strategy
	tenants *workload.Tenants
	hints   *HintTable
	shards  []*popShard
	baseCum [numMixOps]float64
	acts    []Act

	// lease, when attached, is the coherent client-cache plane
	// (internal/lease): reads of a validly leased record are served
	// locally with zero fabric hops. Nil leaves the arrival path
	// bit-identical to a build without the plane. Contrast with hints:
	// hints are non-coherent location guesses (a stale hint costs a
	// forward), leases are coherent records (a stale lease is
	// structurally impossible — recall bumps the shared generation the
	// validity check reads).
	lease *lease.Plane
}

// popShard is one shard's slice of the population: clients are striped
// round-robin (global id g lives on shard g%K at local index g/K), and
// each shard owns a timer wheel, RNG slab, request pool, and metric
// lanes touched only from its own engine. A client's tenant is not
// stored: it is derived from the global id (Tenants.ClientTenant).
type popShard struct {
	pop   *Population
	eng   *sim.Engine
	shard int
	k     int // stripe count
	wheel *sim.Wheel

	rng []uint64 // per-local-client splitmix64 state

	pool    []*msg.Request // free list; grows to max outstanding, then steady
	seq     uint64         // shard-monotonic request ids
	nameSeq int

	// Phase state, rewritten at act boundaries and read on every
	// arrival: the effective rate multiplier, cumulative mix
	// thresholds, and hotspot redirect. Plain fields touched only from
	// this shard's engine, so acts are free on the hot path.
	rateMul float64
	cum     [numMixOps]float64
	hot     *namespace.Inode
	hotFrac float64

	actStats []shardActStat
	curLat   *metrics.LatHist // per-act latency lane; nil outside acts

	issued    uint64
	completed uint64

	// Lease-plane lanes: local serves, plus ops landing on the active
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

	// Base-victim pool (ChurnBase > 0 only): frozen base files reserved
	// for unlink, consumed FIFO before the run-created ring so overlay
	// tombstones accrue from the first unlink draws.
	baseVictims []*namespace.Inode
	baseHead    int

	// Retry escalation (EnableRetries; fault runs only): outstanding
	// requests keyed by shard-unique id, each a boxed record carrying
	// the escalation state the flyweight slabs deliberately omit. Nil on
	// fault-free runs, where the arrival path stays allocation-free.
	retry           map[uint64]*openRetry
	retryTimeout    sim.Time
	retryBackoffMax sim.Time
	retryMax        int
	retries         uint64
	timedOut        uint64
}

// openRetry is one outstanding open-loop request's retry box.
type openRetry struct {
	req      *msg.Request
	li       int32
	attempts int
}

// NewPopulation builds the traffic plane over numShards engines
// (pass the serial engine as a 1-element slice when unsharded).
// Deterministic for (cfg, seed, len(engines)).
func NewPopulation(cfg PopulationConfig, engines []*sim.Engine, netw Network, strat partition.Strategy, tenants *workload.Tenants, seed int64) *Population {
	cfg = cfg.withDefaults()
	if cfg.Clients < 1 {
		panic("client: population with no clients")
	}
	k := len(engines)
	if k < 1 {
		panic("client: population with no engines")
	}
	p := &Population{
		cfg:     cfg,
		net:     netw,
		strat:   strat,
		tenants: tenants,
		hints:   NewHintTable(cfg.Clients, cfg.Ways, k),
		baseCum: cumMix(cfg.MixStat, cfg.MixReaddir, cfg.MixChmod, cfg.MixCreate, cfg.MixRename, cfg.MixUnlink),
	}
	p.shards = make([]*popShard, k)
	for s := 0; s < k; s++ {
		n := (cfg.Clients - s + k - 1) / k // ceil((clients-s)/k): locals of stripe s
		ps := &popShard{
			pop:     p,
			eng:     engines[s],
			shard:   s,
			k:       k,
			rng:     make([]uint64, n),
			rateMul: 1,
			cum:     p.baseCum,
		}
		for li := 0; li < n; li++ {
			g := li*k + s
			ps.rng[li] = mix64(uint64(seed) ^ mix64(uint64(g)+0x9E3779B97F4A7C15))
		}
		ps.wheel = sim.NewWheel(engines[s], wheelTick, n, ps.arrive)
		ps.churnOn = cfg.MixUnlink > 0
		p.shards[s] = ps
	}
	return p
}

// mix64 is the splitmix64 output permutation: the per-client RNG is one
// uint64 of state advanced by a golden-ratio increment.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// next draws the local client's next uniform word.
func (s *popShard) next(li int32) uint64 {
	s.rng[li] += 0x9E3779B97F4A7C15
	return mix64(s.rng[li])
}

// uniform converts a word to [0,1).
func uniform(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// Start arms every client's first arrival and starts the wheels. Each
// client's first draw comes from its own stream, so the herd
// de-synchronises by construction.
func (p *Population) Start() {
	for _, s := range p.shards {
		s.armAll()
	}
}

// armAll starts the shard's wheel and arms every local client (Start,
// and Resume after a checkpoint). Global ids ascend with the local
// index, so the tenant is a cursor, not a search per client.
func (s *popShard) armAll() {
	s.wheel.Start()
	tn := 0
	for li := range s.rng {
		tn = s.pop.tenants.TenantFrom(tn, li*s.k+s.shard)
		s.rearm(int32(li), tn)
	}
}

// Clients returns the population size.
func (p *Population) Clients() int { return p.cfg.Clients }

// SeedBaseVictims distributes reserved base-file unlink victims across
// the shards (victim i to shard i mod K, preserving order within each
// shard). Call before Start; the cluster layer picks the victims so the
// walk order — and with it the unlink sequence — is deterministic.
func (p *Population) SeedBaseVictims(victims []*namespace.Inode) {
	k := len(p.shards)
	for i, v := range victims {
		s := p.shards[i%k]
		s.baseVictims = append(s.baseVictims, v)
	}
}

// Hints exposes the shared location-hint table.
func (p *Population) Hints() *HintTable { return p.hints }

// rate returns the momentary arrival rate λ(t) in ops/sec of a client
// of the given tenant; only diurnal and burst modulation depend on it.
func (s *popShard) rate(tenant int, now sim.Time) float64 {
	cfg := &s.pop.cfg
	tn := uint64(tenant)
	r := cfg.Rate
	if cfg.DiurnalAmp > 0 {
		phase := uniform(mix64(tn + 0x5851F42D4C957F2D))
		x := now.Seconds()/diurnalPeriod.Seconds() + phase
		r *= 1 + cfg.DiurnalAmp*math.Sin(2*math.Pi*x)
	}
	if cfg.BurstProb > 0 {
		epoch := uint64(now / burstEpoch)
		h := mix64(tn*0x9E3779B97F4A7C15 ^ (epoch+1)*0xD1B54A32D192ED03)
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
// arrival at the rate frozen at draw time, through the wheel. tn is the
// client's tenant, which every caller already holds.
func (s *popShard) rearm(li int32, tn int) {
	u := uniform(s.next(li))
	if u <= 0 {
		u = 1e-18
	}
	d := sim.FromSeconds(-math.Log(u) / (s.rate(tn, s.eng.Now()) * s.rateMul))
	if d > sim.Hour {
		d = sim.Hour
	}
	s.wheel.Schedule(li, d)
}

// getRequest reuses a drained request or allocates one. Open-loop
// clients never retransmit, so exactly one copy of each request exists
// and recycling on reply is unconditionally safe.
func (s *popShard) getRequest() *msg.Request {
	if n := len(s.pool); n > 0 {
		req := s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		gen := req.Gen + 1
		*req = msg.Request{}
		req.Gen = gen
		return req
	}
	return &msg.Request{}
}

// arrive is the wheel's fire callback: draw the op, direct it, send it,
// and arm the next arrival. Allocation-free except for Create.
func (s *popShard) arrive(li int32) {
	if s.stopped {
		return
	}
	p := s.pop
	g := int(li)*s.k + s.shard
	tn := p.tenants.ClientTenant(g)

	req := s.getRequest()
	s.seq++
	req.ID = s.seq
	req.Client = g
	req.Issued = s.eng.Now()
	req.Via = -1

	x := uniform(s.next(li)) * s.cum[numMixOps-1]
	switch {
	case x < s.cum[0]:
		req.Op = msg.Stat
		req.Target = p.tenants.File(tn, s.next(li), s.next(li))
	case x < s.cum[1]:
		req.Op = msg.Readdir
		req.Target = p.tenants.Dir(tn, s.next(li), s.next(li))
	case x < s.cum[2]:
		req.Op = msg.Chmod
		req.Target = p.tenants.File(tn, s.next(li), s.next(li))
	case x < s.cum[3]:
		req.Op = msg.Create
		req.Target = p.tenants.Dir(tn, s.next(li), s.next(li))
		s.nameSeq++
		req.NewName = popName(s.shard, s.nameSeq)
	case x < s.cum[4]:
		// Rename: move a working-set entry into another tenant's
		// directory — the cross-authority migration op. The inode
		// survives the move (failed renames are MDS-side no-ops), so
		// working-set and alias-table pointers stay valid.
		req.Op = msg.Rename
		req.Target = p.tenants.File(tn, s.next(li), s.next(li))
		dst := tn
		if t := p.tenants.NumTenants(); t > 1 {
			dst = int(s.next(li) % uint64(t-1))
			if dst >= tn {
				dst++
			}
		}
		req.DstDir = p.tenants.Dir(dst, s.next(li), s.next(li))
		s.nameSeq++
		req.NewName = popName(s.shard, s.nameSeq)
	default:
		// Unlink: remove a file this run created earlier, oldest first.
		// Until a create has completed there is nothing to remove; the
		// draw degrades to a create with the same draw pattern, seeding
		// the ring.
		if victim := s.churnPop(); victim != nil {
			req.Op = msg.Unlink
			req.Target = victim
		} else {
			req.Op = msg.Create
			req.Target = p.tenants.Dir(tn, s.next(li), s.next(li))
			s.nameSeq++
			req.NewName = popName(s.shard, s.nameSeq)
		}
	}
	// Hotspot acts redirect a fraction of draws to one target. The
	// extra uniform word is drawn only while a hotspot is active, so
	// hotspot-free runs keep their RNG streams (and goldens) intact.
	// Unlinks consume the draw but never redirect: the op must land on
	// the ring victim — retargeting it would remove a working-set entry
	// the tenant alias tables still point at.
	if s.hotFrac > 0 && uniform(s.next(li)) < s.hotFrac && req.Op != msg.Unlink {
		req.Target = s.hot
	}

	// A validly leased record is served locally: zero fabric hops, zero
	// latency. The check consumes no randomness and the branch only
	// exists when the plane is attached, so runs without it replay
	// bit-identically.
	if l := p.lease; l != nil && l.Tab != nil && !req.Op.IsUpdate() {
		ino := req.Target.ID
		if l.Tab.Valid(g, ino, l.Reg.Gen(ino), s.eng.Now()) {
			s.issued++
			s.completed++
			s.leaseHits++
			if req.Target == s.hot {
				s.hotLocal++
			}
			if s.curLat != nil {
				s.curLat.Observe(0)
			}
			s.pool = append(s.pool, req)
			s.rearm(li, tn)
			return
		}
	}

	mds := p.direct(g, req, s.next(li))
	req.FirstMDS = mds
	s.issued++
	if s.retry != nil {
		r := &openRetry{req: req, li: li}
		s.retry[req.ID] = r
		s.eng.AfterCall(s.retryTimeout, popRetryFire, s, r)
	}
	p.net.Send(mds, req)
	s.rearm(li, tn)
}

// churnPop takes the oldest unlink-eligible inode, or nil. Reserved
// base victims drain first (they age the overlay), then the ring of
// files this run created.
func (s *popShard) churnPop() *namespace.Inode {
	if s.baseHead < len(s.baseVictims) {
		n := s.baseVictims[s.baseHead]
		s.baseVictims[s.baseHead] = nil
		s.baseHead++
		return n
	}
	if s.churnHead >= len(s.churn) {
		return nil
	}
	n := s.churn[s.churnHead]
	s.churn[s.churnHead] = nil
	s.churnHead++
	// Compact once half the slice is dead so the ring's footprint tracks
	// the live backlog, not the cumulative create count.
	if s.churnHead > len(s.churn)/2 && s.churnHead > 64 {
		live := copy(s.churn, s.churn[s.churnHead:])
		for i := live; i < len(s.churn); i++ {
			s.churn[i] = nil
		}
		s.churn = s.churn[:live]
		s.churnHead = 0
	}
	return n
}

// churnPush appends a freshly created file to the unlink ring.
func (s *popShard) churnPush(n *namespace.Inode) { s.churn = append(s.churn, n) }

// popRetryFire is the retry-escalation timer: retransmit with doubled
// backoff, or retire the op as timed out once attempts are exhausted
// (or the population is draining). Retiring recycles the request; a
// late reply for a retired id misses the retry map and is dropped
// without touching the pool, so a struct can never be pooled twice.
func popRetryFire(a, b any) {
	s := a.(*popShard)
	r := b.(*openRetry)
	if s.retry[r.req.ID] != r {
		return // completed (or already retired); timer is stale
	}
	if s.stopped || r.attempts >= s.retryMax {
		delete(s.retry, r.req.ID)
		s.timedOut++
		s.pool = append(s.pool, r.req)
		return
	}
	r.attempts++
	s.retries++
	// Resteer through the current hint state: the authority may have
	// moved (or died) since the original send.
	p := s.pop
	g := int(r.li)*s.k + s.shard
	mds := p.direct(g, r.req, s.next(r.li))
	r.req.FirstMDS = mds
	p.net.Send(mds, r.req)
	d := s.retryTimeout << uint(r.attempts)
	if d > s.retryBackoffMax {
		d = s.retryBackoffMax
	}
	s.eng.AfterCall(d, popRetryFire, s, r)
}

// popName formats p<shard>_<seq> without fmt; the retained string is
// the new entry's name (inherent allocation of the Create op).
func popName(shard, seq int) string {
	var buf [24]byte
	b := buf[:0]
	b = append(b, 'p')
	b = appendInt(b, shard)
	b = append(b, '_')
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

// direct steers a request exactly like the closed-loop client (§4.4):
// computed authority for hashed strategies, deepest known prefix from
// the shared hint table otherwise, random fallback.
func (p *Population) direct(g int, req *msg.Request, u uint64) int {
	if p.strat.ClientComputable() {
		if req.Op == msg.Create || req.Op == msg.Mkdir {
			return p.strat.AuthorityForName(req.Target, req.NewName)
		}
		return p.strat.Authority(req.Target)
	}
	reg := p.hints.slots(g)
	if reg == nil {
		return int(u % uint64(p.net.NumMDS())) // never answered: knows nothing
	}
	for n := req.Target; n != nil; n = n.Parent() {
		if auth, repl, ok := p.hints.get(reg, n.ID); ok {
			if repl {
				return int(u % uint64(p.net.NumMDS()))
			}
			return auth
		}
	}
	return int(u % uint64(p.net.NumMDS()))
}

// OnReply completes one arrival: absorb hints and a lease grant if one
// rides the reply, recycle the request. Runs on the client's shard.
// Allocation-free (pool growth amortises to zero once the outstanding
// high-water mark is reached). It reports whether the reply was
// accepted: the caller records a completion's response time only then.
func (p *Population) OnReply(rep *msg.Reply) bool {
	s := p.shards[rep.Client%len(p.shards)]
	if s.retry != nil {
		r, ok := s.retry[rep.ID]
		if !ok || r.req != rep.Req {
			// A duplicate reply to a retransmitted (or already retired)
			// request: the first copy completed it and recycled the
			// struct, so this one must not touch the pool or counters.
			return false
		}
		delete(s.retry, rep.ID)
	}
	s.completed++
	if s.curLat != nil {
		s.curLat.Observe(rep.Latency())
	}
	if len(rep.Hints) > 0 {
		reg := p.hints.claim(rep.Client)
		for _, h := range rep.Hints {
			p.hints.put(reg, h)
		}
	}
	if req := rep.Req; req != nil {
		if req.Target == s.hot {
			s.hotRemote++
		}
		// Feed the churn ring with the completed create's inode. The
		// reply travels after the barrier that applied the mutation, so
		// the parent's index already holds the new entry and the lookup
		// is read-only. Timed-out creates never reach here, so they can
		// never be drawn as unlink victims.
		if s.churnOn && req.Op == msg.Create {
			if c, ok := req.Target.LookupChild(req.NewName); ok && !c.IsDir() {
				s.churnPush(c)
			}
		}
		// Install a granted lease at receipt: lifetime runs from now,
		// and the generation snapshotted at the authority keeps a grant
		// that raced a recall from resurrecting the lease.
		if rep.Leased && p.lease != nil && p.lease.Tab != nil {
			p.lease.Tab.Install(rep.Client, req.Target.ID, rep.LeaseGen,
				s.eng.Now()+p.lease.Cfg.Duration)
		}
		s.pool = append(s.pool, req)
	}
	return true
}

// AttachLeasePlane hands the population the coherent client-cache plane.
// Call before Start.
func (p *Population) AttachLeasePlane(l *lease.Plane) { p.lease = l }

// EnableRetries arms the boxed retry-escalation cache on every shard:
// unanswered requests are retransmitted with capped exponential backoff
// (base timeout doubling per attempt, capped at backoffMax, 8× the base
// when zero) and retired as timed out after maxRetries attempts. Only
// fault schedules need this — it buys crash survival at the cost of one
// small heap box per outstanding request.
func (p *Population) EnableRetries(timeout sim.Time, maxRetries int, backoffMax sim.Time) {
	if timeout <= 0 || maxRetries <= 0 {
		panic("client: EnableRetries with no timeout or retry budget")
	}
	if backoffMax <= 0 {
		backoffMax = 8 * timeout
	}
	for _, s := range p.shards {
		s.retry = make(map[uint64]*openRetry)
		s.retryTimeout = timeout
		s.retryBackoffMax = backoffMax
		s.retryMax = maxRetries
	}
}

// Stop suppresses further arrivals (Drain): pending wheel timers fire
// into a no-op and outstanding retry chains retire at their next
// deadline, so a drained run leaves no in-flight population state.
func (p *Population) Stop() {
	for _, s := range p.shards {
		s.stopped = true
	}
}

// Issued and Completed sum the per-shard counters.
func (p *Population) Issued() uint64 {
	var n uint64
	for _, s := range p.shards {
		n += s.issued
	}
	return n
}

// Completed returns accepted replies across all shards.
func (p *Population) Completed() uint64 {
	var n uint64
	for _, s := range p.shards {
		n += s.completed
	}
	return n
}

// LeaseHits counts arrivals served locally from a valid lease.
func (p *Population) LeaseHits() uint64 {
	var n uint64
	for _, s := range p.shards {
		n += s.leaseHits
	}
	return n
}

// HotspotOps returns ops that landed on an act's hotspot target, split
// into locally leased serves and remote (MDS) completions.
func (p *Population) HotspotOps() (local, remote uint64) {
	for _, s := range p.shards {
		local += s.hotLocal
		remote += s.hotRemote
	}
	return
}

// Retries and TimedOut sum the retry-escalation counters.
func (p *Population) Retries() uint64 {
	var n uint64
	for _, s := range p.shards {
		n += s.retries
	}
	return n
}

// TimedOut counts ops retired after exhausting their retry budget.
func (p *Population) TimedOut() uint64 {
	var n uint64
	for _, s := range p.shards {
		n += s.timedOut
	}
	return n
}

// RetryOutstanding counts boxed requests still awaiting a reply or a
// retirement deadline; zero after a drain.
func (p *Population) RetryOutstanding() int {
	n := 0
	for _, s := range p.shards {
		n += len(s.retry)
	}
	return n
}

// FootprintBytes returns the structural per-population memory: RNG
// slabs (8 B/client), wheel intrusive lists (8 B/client), the shared
// hint table (a 4 B/client region index plus the chunks allocated so
// far, so it grows as clients are first answered), the tenant model,
// and the lease slab when attached. Request pools and engine state are
// excluded (they scale with outstanding requests, not with the
// population size).
func (p *Population) FootprintBytes() int64 {
	var b int64
	for _, s := range p.shards {
		b += int64(len(s.rng)) * 8
		b += s.wheel.FootprintBytes()
	}
	b += p.hints.FootprintBytes() + p.tenants.FootprintBytes()
	if p.lease != nil && p.lease.Tab != nil {
		// The lease slab is per-client state and counts against the
		// bytes/client budget; the shared registry scales with the
		// namespace, not the population, and is reported separately.
		b += int64(p.lease.Tab.FootprintBytes())
	}
	return b
}
