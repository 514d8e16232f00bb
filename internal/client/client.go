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
// per closed-loop Client.
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
	// RetryTimeout, when positive, re-sends a request that has not
	// been answered within the timeout, doubling the wait per attempt up
	// to 8× the timeout, at most maxRetries times. Retries resteer: the
	// stale location hint for the target is invalidated and the resend
	// avoids the node tried last, since that node may be down. Needed for
	// failover and fault-injection scenarios; zero disables retries.
	RetryTimeout sim.Time
}

// maxRetries bounds the resend attempts per request, in either client
// model; once exhausted the request is abandoned and counted as timed
// out, and the client moves on to its next operation.
const maxRetries = 8

// Stats counts one client's activity.
type Stats struct {
	Issued    uint64
	Completed uint64
	Retries   uint64
	// TimedOut counts requests abandoned after maxRetries unanswered
	// sends (or cut off by Stop while still unanswered). Every issued
	// request ends up either Completed or TimedOut once the run drains.
	TimedOut uint64
}

// Client is one simulated client.
type Client struct {
	id    int
	eng   *sim.Engine
	cfg   Config
	rng   *sim.RNG
	net   Network
	strat partition.Strategy
	gen   workload.Generator

	// hints is the location-knowledge cache, a private single-client
	// table that keeps no draw count.
	hints *HintTable

	nextID   uint64
	stopped  bool
	inflight *msg.Request
	attempts int // resends of the current in-flight request
	lastMDS  int // node the in-flight request was last sent to
	// reqPool recycles completed requests. Replies are matched by
	// (client, id, gen) values rather than pointer identity, so reuse
	// is safe even in retry configurations: a recycled struct's next
	// incarnation carries a bumped Gen, and a late duplicate reply to
	// the old incarnation no longer matches. The one case that still
	// allocates is a request that was actually retransmitted — a stale
	// in-flight copy may reference the struct, so it is not recycled.
	reqPool *msg.Request

	Stats Stats
}

// New creates a client driving the given workload generator.
func New(id int, eng *sim.Engine, cfg Config, rng *sim.RNG, net Network, strat partition.Strategy, gen workload.Generator) *Client {
	if cfg.KnownCap <= 0 {
		cfg.KnownCap = 1024
	}
	return &Client{
		id:    id,
		eng:   eng,
		cfg:   cfg,
		rng:   rng,
		net:   net,
		strat: strat,
		gen:   gen,
		hints: NewHintTable(1, cfg.KnownCap, false),
	}
}

// Start begins the closed loop, staggered by the given phase to avoid a
// synchronized thundering herd at t=0.
func (c *Client) Start(phase sim.Time) {
	c.eng.AfterCall(phase, clientIssue, c, nil)
}

// clientIssue is the recurring op-loop dispatcher: the client rides in
// the event payload, so the closed loop schedules without allocating.
func clientIssue(a, _ any) { a.(*Client).issue() }

// Stop ends the loop after the in-flight operation completes.
func (c *Client) Stop() { c.stopped = true }

// getRequest returns a recycled request (with its generation counter
// bumped) or a fresh one.
func (c *Client) getRequest() *msg.Request {
	if c.reqPool != nil {
		req := c.reqPool
		c.reqPool = nil
		gen := req.Gen + 1
		*req = msg.Request{}
		req.Gen = gen
		return req
	}
	return &msg.Request{}
}

func (c *Client) issue() {
	if c.stopped {
		return
	}
	op, ok := c.gen.Next(c.eng.Now(), c.rng)
	if !ok {
		// Generator exhausted or idle: retry after a think time.
		c.eng.AfterCall(c.rng.Exp(c.cfg.ThinkMean)+sim.Millisecond, clientIssue, c, nil)
		return
	}
	c.nextID++
	req := c.getRequest()
	req.ID = c.nextID
	req.Client = c.id
	req.Op = op.Op
	req.Target = op.Target
	req.DstDir = op.DstDir
	req.NewName = op.NewName
	req.Size = op.Size
	req.Issued = c.eng.Now()
	req.Via = -1
	mds := c.direct(req)
	c.Stats.Issued++
	c.inflight = req
	c.attempts = 0
	c.lastMDS = mds
	c.net.Send(mds, req)
	c.armRetry(req)
}

// retryBackoff returns the wait before the next retransmission of a
// request already resent attempts times, for either client model: the
// timeout doubled per attempt, capped at 8× the timeout.
func retryBackoff(timeout sim.Time, attempts int) sim.Time {
	return timeout << uint(min(attempts, 3))
}

// armRetry schedules a retransmission for an unanswered request with
// capped exponential backoff. Each retry resteers: the (possibly stale)
// location hint for the target is dropped and the resend avoids the
// node tried last — the original target may have failed, and any node
// can forward to the current authority. After maxRetries attempts the
// request is abandoned as timed out and the closed loop moves on.
func (c *Client) armRetry(req *msg.Request) {
	if c.cfg.RetryTimeout <= 0 {
		return
	}
	gen := req.Gen
	c.eng.After(retryBackoff(c.cfg.RetryTimeout, c.attempts), func() {
		if c.inflight != req || req.Gen != gen {
			// Answered (and possibly already recycled into a new
			// incarnation with a bumped Gen) — nothing to retry.
			return
		}
		if c.stopped {
			// The run is draining: account the unanswered request so
			// every issued op ends up completed or timed out.
			c.Stats.TimedOut++
			c.inflight = nil
			return
		}
		if c.attempts >= maxRetries {
			c.Stats.TimedOut++
			c.inflight = nil
			c.eng.AfterCall(c.rng.Exp(c.cfg.ThinkMean), clientIssue, c, nil)
			return
		}
		c.attempts++
		c.Stats.Retries++
		if req.Target != nil {
			c.hints.Del(0, req.Target.ID)
		}
		to := c.rng.Pick(c.net.NumMDS())
		if n := c.net.NumMDS(); n > 1 && to == c.lastMDS {
			to = (to + 1) % n
		}
		c.lastMDS = to
		c.net.Send(to, req)
		c.armRetry(req)
	})
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
	return c.rng.Pick(c.net.NumMDS())
}

// OnReply completes the in-flight operation: absorb distribution hints,
// think, and issue the next request. Replies are matched by (client, id,
// gen) values — never pointer identity — so duplicates (a retried
// request answered twice, or a late answer to an abandoned request) are
// dropped even after the request struct itself has been recycled. It
// reports whether the reply was accepted: the caller records a
// completion's response time only then.
func (c *Client) OnReply(rep *msg.Reply) bool {
	req := c.inflight
	if req == nil || rep.Client != c.id || rep.ID != req.ID || rep.Gen != req.Gen {
		return false
	}
	c.inflight = nil
	c.Stats.Completed++
	if len(rep.Hints) > 0 {
		rec := c.hints.claim(0)
		for _, h := range rep.Hints {
			c.hints.put(rec, h)
		}
	}
	if c.attempts == 0 {
		// Exactly one copy of this request was ever sent and its one
		// delivery chain just completed, so no stale reference can
		// remain anywhere in the cluster: recycle. Retransmitted
		// requests (attempts > 0) may still have an in-flight copy
		// traversing the fabric and are left to the garbage collector.
		c.reqPool = req
	}
	if !c.stopped {
		c.eng.AfterCall(c.rng.Exp(c.cfg.ThinkMean), clientIssue, c, nil)
	}
	return true
}

// Inflight reports whether the client still holds an unanswered
// request (drain/invariant checks).
func (c *Client) Inflight() bool { return c.inflight != nil }
