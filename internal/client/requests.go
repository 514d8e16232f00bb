package client

import (
	"dynmds/internal/msg"
	"dynmds/internal/sim"
)

// maxRetries bounds the resend attempts per request; once exhausted the
// request is abandoned and counted as timed out.
const maxRetries = 8

// Counts is what a request lifecycle has done.
type Counts struct {
	Issued    uint64
	Completed uint64
	Retries   uint64
	// TimedOut counts requests abandoned after maxRetries unanswered
	// resends, or cut off by a stop while still unanswered. Every issued
	// request ends up either Completed or TimedOut once the run drains.
	TimedOut uint64
}

// Add adds o to n.
func (n *Counts) Add(o Counts) {
	n.Issued += o.Issued
	n.Completed += o.Completed
	n.Retries += o.Retries
	n.TimedOut += o.TimedOut
}

// Outstanding counts the issued requests neither answered nor abandoned.
func (n Counts) Outstanding() uint64 { return n.Issued - n.Completed - n.TimedOut }

// owner is what a lifecycle leaves to its client model: where a resend
// of req goes, given the node it was last sent to, and what follows a
// request abandoned after maxRetries resends.
type owner interface {
	resend(req *msg.Request, last int) int
	abandoned()
}

// Requests is the one request lifecycle of both client models: the pool
// of request structs, the id and issue stamp, the retry rule, the rule
// for accepting a reply, and the counts. Each closed-loop Client keeps
// one; the open-loop Population keeps one for all its clients.
//
// With a retry timeout, a request unanswered after the timeout is resent,
// the wait doubling per resend up to 8× the timeout, at most maxRetries
// times; then, or at its next deadline once the lifecycle is stopped, it
// is abandoned. The paper's clients ride out a failure this way: any node
// forwards a resend to the current authority (§2.1.2, §4.4).
//
// A request's ID is unique within its lifecycle and zero once the
// request is retired (answered or abandoned), so a reply is accepted
// only while the request it answers still carries the reply's ID: a
// duplicate, or a late answer to an abandoned request, matches nothing.
// A retired request that was sent is recycled only while retries are
// disarmed: with them, a copy of it may still be in flight, or held by
// an MDS forward watchdog that re-dispatches it, and a recycled struct
// would carry another operation there.
type Requests struct {
	Counts

	eng   *sim.Engine
	net   Network
	owner owner
	// timeout is the retry timeout; zero disables retries.
	timeout sim.Time
	// stopped abandons every unanswered request at its next deadline.
	stopped bool
	seq     uint64
	pool    sim.Pool[msg.Request]
	// retries lends the sent requests' retry records; a record goes back
	// when its timer retires it.
	retries sim.Pool[pending]
}

// init sets the lifecycle up for its owner; poolCap presizes the pool.
func (r *Requests) init(eng *sim.Engine, net Network, o owner, timeout sim.Time, poolCap int) {
	r.eng, r.net, r.owner, r.timeout = eng, net, o, timeout
	r.pool.Reserve(poolCap)
}

// get returns a request for client, zeroed, stamped with the next id and
// the issue time.
func (r *Requests) get(client int) *msg.Request {
	req := r.pool.Get()
	*req = msg.Request{}
	r.seq++
	req.ID, req.Client, req.Issued, req.Via = r.seq, client, r.eng.Now(), -1
	return req
}

// send issues req to node to and arms its retry timer.
func (r *Requests) send(to int, req *msg.Request) {
	r.Issued++
	if r.timeout > 0 {
		p := r.retries.Get()
		*p = pending{req: req, last: to}
		r.eng.AfterCall(r.timeout, retryFire, r, p)
	}
	r.net.Send(to, req)
}

// local counts req as issued and answered without a send (a lease hit)
// and recycles it. It bypasses put: a request never sent has no copy in
// flight and no watchdog holding it, so it is recycled even while
// retries are armed.
func (r *Requests) local(req *msg.Request) {
	r.Issued++
	r.Completed++
	r.pool.Put(req)
}

// accept retires the request rep answers and counts its completion; it
// reports false for a reply to a request already retired. The caller
// reads what it needs of the request, then releases it.
func (r *Requests) accept(rep *msg.Reply) bool {
	req := rep.Req
	if req == nil || rep.ID == 0 || req.ID != rep.ID {
		return false
	}
	r.Completed++
	req.ID = 0
	return true
}

// release recycles a request accept retired, its name cleared: a free
// request must not hold its issuer's name block alive. With retries
// armed it does neither: a copy may still be in flight, and the node it
// reaches reads the name; the struct then dies with its last holder.
func (r *Requests) release(req *msg.Request) {
	if r.timeout == 0 {
		req.NewName = ""
		r.pool.Put(req)
	}
}

// pending is a sent request's retry state, its timer's payload.
type pending struct {
	req      *msg.Request
	attempts int
	last     int // the node it was last sent to
}

func retryFire(a, b any) { a.(*Requests).retry(b.(*pending)) }

// retry is a sent request's retry timer: resend it with the wait
// doubled, or abandon it once the resends are exhausted or the
// lifecycle is stopped. The timer is the record's one holder, so it
// returns the record wherever it ends.
func (r *Requests) retry(p *pending) {
	if p.req.ID == 0 {
		// Answered or abandoned: the timer is stale.
		p.req = nil
		r.retries.Put(p)
		return
	}
	if r.stopped || p.attempts >= maxRetries {
		r.TimedOut++
		p.req.ID = 0
		p.req = nil
		r.retries.Put(p)
		if !r.stopped {
			r.owner.abandoned()
		}
		return
	}
	p.attempts++
	r.Retries++
	p.last = r.owner.resend(p.req, p.last)
	r.net.Send(p.last, p.req)
	r.eng.AfterCall(r.timeout<<uint(min(p.attempts, 3)), retryFire, r, p)
}
