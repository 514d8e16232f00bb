// Package client models the client population. Two planes exist:
//
//   - Client is the closed-loop per-object model: issue one metadata
//     operation, wait for the reply, think, repeat. The interesting
//     behaviour is request direction (§4.4): for hash-based strategies
//     clients compute the authority directly; for subtree strategies
//     they are initially ignorant and direct each request by the
//     deepest known prefix of the target's path, learning the
//     partition from the distribution hints carried on replies.
//
//   - Population is the open-loop flyweight plane for millions of
//     clients: dense per-client records in slab arrays, arrivals
//     scheduled through a hierarchical timer wheel, tenants with
//     Zipf-distributed sizes (see population.go). It knows no scenario
//     acts: the cluster runs them and installs each act's rate, mix,
//     hotspot and latency lane as the population's phase (SetPhase).
//
// Both planes keep location knowledge in a HintTable (hints.go): one
// population-wide table for the open loop, a private single-client table
// per closed-loop Client. Both send through one request lifecycle,
// Requests (requests.go) — pool, stamp, retry rule, reply acceptance and
// counts — one per closed-loop Client and one for the Population; a
// model decides only where a resend goes and what follows a give-up.
package client

import (
	"dynmds/internal/msg"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// Network is the client's access to the cluster.
type Network interface {
	// Send delivers a request to MDS node i after client→MDS latency.
	Send(i int, req *msg.Request)
	// NumMDS returns the cluster size.
	NumMDS() int
}

// Config parameterises a client.
type Config struct {
	// ThinkMean is the mean think time between a reply and the next
	// request (exponentially distributed). Zero = saturating client.
	ThinkMean sim.Time
	// KnownCap bounds the location-knowledge cache (per-client ways in
	// the shared hint table, rounded up to a power of two).
	KnownCap int
	// RetryTimeout, when positive, arms the request lifecycle's retries
	// (Requests) in either client model; zero disables them.
	RetryTimeout sim.Time
}

// Client is one simulated client.
type Client struct {
	id    int
	eng   *sim.Engine
	cfg   Config
	rng   *sim.RNG
	strat partition.Strategy
	gen   workload.Generator

	// hints is the location-knowledge cache, a private single-client
	// table that keeps no draw count.
	hints *HintTable

	// reqs is the client's own request lifecycle; its pool holds the one
	// struct a closed loop recycles.
	reqs Requests
}

// New creates a client driving the given workload generator.
func New(id int, eng *sim.Engine, cfg Config, rng *sim.RNG, net Network, strat partition.Strategy, gen workload.Generator) *Client {
	if cfg.KnownCap <= 0 {
		cfg.KnownCap = 1024
	}
	c := &Client{
		id:    id,
		eng:   eng,
		cfg:   cfg,
		rng:   rng,
		strat: strat,
		gen:   gen,
		hints: NewHintTable(1, cfg.KnownCap, false),
	}
	c.reqs.init(eng, net, c, cfg.RetryTimeout, 1)
	return c
}

// Start begins the closed loop, staggered by the given phase to avoid a
// synchronized thundering herd at t=0.
func (c *Client) Start(phase sim.Time) {
	c.eng.AfterCall(phase, clientIssue, c, nil)
}

// clientIssue is the recurring op-loop dispatcher: the client rides in
// the event payload, so the closed loop schedules without allocating.
func clientIssue(a, _ any) { a.(*Client).issue() }

// Stop ends the loop after the in-flight operation completes or is
// abandoned.
func (c *Client) Stop() { c.reqs.stopped = true }

// Counts returns what the client's request lifecycle has done.
func (c *Client) Counts() Counts { return c.reqs.Counts }

func (c *Client) issue() {
	if c.reqs.stopped {
		return
	}
	op, ok := c.gen.Next(c.eng.Now(), c.rng)
	if !ok {
		// Generator exhausted or idle: retry after a think time.
		c.eng.AfterCall(c.rng.Exp(c.cfg.ThinkMean)+sim.Millisecond, clientIssue, c, nil)
		return
	}
	req := c.reqs.get(c.id)
	req.Op = op.Op
	req.Target = op.Target
	req.DstDir = op.DstDir
	req.NewName = op.NewName
	req.Size = op.Size
	c.reqs.send(c.direct(req), req)
}

// resend steers a resend: the (possibly stale) location hint for the
// target is dropped and the resend avoids the node tried last — it may
// have failed, and any node can forward to the current authority.
func (c *Client) resend(req *msg.Request, last int) int {
	if req.Target != nil {
		c.hints.Del(0, req.Target.ID)
	}
	n := c.reqs.net.NumMDS()
	to := c.rng.Pick(n)
	if n > 1 && to == last {
		to = (to + 1) % n
	}
	return to
}

// abandoned moves the loop on past an abandoned request: think, issue.
func (c *Client) abandoned() {
	c.eng.AfterCall(c.rng.Exp(c.cfg.ThinkMean), clientIssue, c, nil)
}

// steer picks the MDS a request goes to (§4.4), for both client models:
// computed directly for hashed strategies; otherwise the deepest prefix
// whose location the client's hint record rec holds. It reports false
// when that prefix is advertised as replicated or none is known: the
// caller then picks a node at random (the root is "known to all clients
// and consequently highly replicated").
func steer(strat partition.Strategy, hints *HintTable, rec []uint32, req *msg.Request) (int, bool) {
	if strat.ClientComputable() {
		if req.Op == msg.Create || req.Op == msg.Mkdir {
			return strat.AuthorityForName(req.Target, req.NewName), true
		}
		return strat.Authority(req.Target), true
	}
	for n := req.Target; rec != nil && n != nil; n = n.Parent() {
		if auth, repl, ok := hints.get(rec, n.ID); ok {
			return auth, !repl
		}
	}
	return 0, false
}

// direct steers req, drawing the random fallback from the client's
// stream only when it is needed.
func (c *Client) direct(req *msg.Request) int {
	if mds, ok := steer(c.strat, c.hints, c.hints.record(0), req); ok {
		return mds
	}
	return c.rng.Pick(c.reqs.net.NumMDS())
}

// OnReply completes the in-flight operation: absorb distribution hints,
// think, and issue the next request. It reports whether the lifecycle
// accepted the reply (a duplicate, or a late answer to an abandoned
// request, is refused): the caller records a completion's response time
// only then.
func (c *Client) OnReply(rep *msg.Reply) bool {
	if !c.reqs.accept(rep) {
		return false
	}
	c.reqs.release(rep.Req)
	if len(rep.Hints) > 0 {
		rec := c.hints.claim(0)
		for _, h := range rep.Hints {
			c.hints.put(rec, h)
		}
	}
	if !c.reqs.stopped {
		c.eng.AfterCall(c.rng.Exp(c.cfg.ThinkMean), clientIssue, c, nil)
	}
	return true
}
