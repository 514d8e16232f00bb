package cluster

import (
	"fmt"
	"strings"

	"dynmds/internal/fault"
	"dynmds/internal/net"
	"dynmds/internal/sim"
)

// Fault mode: a non-empty fault schedule arms the retry and timeout
// paths (client retries, MDS fetch and forward timeouts, suspicion);
// without them an injected crash or message drop would hang clients
// forever, with them every fault is survivable out of the box.
const (
	// defaultRetryTimeout is the client retry timeout fault mode fills
	// in when the run sets none.
	defaultRetryTimeout = 150 * sim.Millisecond
	// suspicionThreshold is the number of missed-timeout strikes
	// against a peer before the cluster marks it down; the dynamic
	// strategy then reassigns the suspect's subtrees to the
	// least-loaded survivors.
	suspicionThreshold = 3
)

// FaultEvent records one fault-injection incident on the simulated
// timeline.
type FaultEvent struct {
	At   sim.Time
	Node int
	// Warmed is the number of cache records preloaded from the bounded
	// log's working set (recovery events only).
	Warmed int
}

// scheduleFaults posts the parsed schedule's node events that lie after
// the given instant onto the engine: a fresh run arms from before time
// zero, a restored one from its checkpoint, whose earlier events the
// checkpointed run already dispatched. Crashes only mark the node dead —
// detection and subtree reassignment happen through the suspicion
// protocol, not by fiat — while recoveries go through RecoverNode so the
// warmed-count and the down/strike state are handled in one place. Drop,
// lag and partition rules need no events: the fault plane evaluates them
// per message.
func (c *Cluster) scheduleFaults(after sim.Time) {
	if c.sched == nil {
		return
	}
	for i := range c.sched.Rules {
		r := &c.sched.Rules[i]
		if (r.Kind == fault.Crash || r.Kind == fault.Recover || r.Kind == fault.Slow) && r.From > after {
			c.Eng.AtCall(r.From, ruleFires, c, r)
		}
		if r.Kind == fault.Slow && r.To > after {
			c.Eng.AtCall(r.To, ruleFires, c, r)
		}
	}
}

// ruleFires applies rule r's node event due now: a crash, a recovery,
// or a slow window's start or end (a window parses only with From < To).
func ruleFires(x, y any) {
	c, r := x.(*Cluster), y.(*fault.Rule)
	switch {
	case r.Kind == fault.Crash:
		c.Nodes[r.Node].Fail()
		c.Failures = append(c.Failures, FaultEvent{At: r.From, Node: r.Node})
	case r.Kind == fault.Recover:
		c.RecoverNode(r.Node) //nolint:errcheck // node index validated at parse
	case c.Eng.Now() < r.To:
		c.Nodes[r.Node].SetSlow(r.Factor)
	default:
		c.Nodes[r.Node].SetSlow(1)
	}
}

// Suspect implements mds.Cluster: one missed-timeout strike
// against peer. At suspicionThreshold strikes the peer is marked down:
// peers stop round-tripping to it (dead-letter forwards, direct disk
// reads for fetches) and the dynamic strategy reassigns its subtrees to
// the least-loaded survivors — the automatic failover of §2.1.2,
// triggered by detection rather than an operator call.
func (c *Cluster) Suspect(reporter, peer int) {
	if c.strikes == nil || peer < 0 || peer >= len(c.strikes) {
		return
	}
	c.suspicions++
	if c.down[peer] {
		return
	}
	c.strikes[peer]++
	if c.strikes[peer] >= suspicionThreshold {
		c.markDown(peer)
	}
}

// Exonerate implements mds.Cluster: a reply or ack from the peer
// proves it alive, clearing accumulated strikes. A node already marked
// down stays down until RecoverNode (suspicion is sticky; a stray late
// ack from a crashed node's final moments must not resurrect it).
func (c *Cluster) Exonerate(peer int) {
	if c.strikes == nil || peer < 0 || peer >= len(c.strikes) {
		return
	}
	if !c.down[peer] {
		c.strikes[peer] = 0
	}
}

// NodeDown implements mds.Cluster.
func (c *Cluster) NodeDown(peer int) bool {
	return c.down != nil && peer >= 0 && peer < len(c.down) && c.down[peer]
}

// markDown confirms a suspect dead and fails its workload over.
func (c *Cluster) markDown(peer int) {
	if c.down[peer] {
		return
	}
	c.down[peer] = true
	c.Downs = append(c.Downs, FaultEvent{At: c.Eng.Now(), Node: peer})
	if c.dynamic {
		c.reassignRoots(peer) //nolint:errcheck // delegation over a live table
	}
}

// Drain ends the run: it drains for drainLimit past the window at most,
// leaving what is still in flight then for simfsck and the conservation
// checks to name, which are only meaningful on a drained cluster. The
// perpetual tickers (flushers, balancer) keep running. Call after Run.
func (c *Cluster) Drain() {
	c.drain(c.Eng.Now() + QuiesceDrain + drainLimit) //nolint:errcheck // simfsck names what is left
}

// drainLimit covers the slowest drain the repository runs: an overloaded
// node's fetch backlog under a partition outlasts a third of it.
const drainLimit = 30 * QuiesceDrain

// FaultSummary renders the human-readable fault block for a finished
// run: the resilience counters, per-class drop counts, and the injected
// crash / confirmed-down / recovery timeline. Empty string on
// fault-free runs. mdsim prints this after a run with a fault schedule.
func (r *Result) FaultSummary() string {
	if r.FaultSchedule == "" {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "faults (%s): %d retries, %d timed out, %d fetch timeouts, %d fwd timeouts, %d dead letters, %d suspicions\n",
		r.FaultSchedule, r.Retries, r.TimedOut, r.FetchTimeouts,
		r.FwdTimeouts, r.DeadLetters, r.Suspicions)
	if r.Net.Dropped > 0 {
		b.WriteString("  dropped by class:")
		for c := 0; c < net.NumClasses; c++ {
			if d := r.Net.PerClass[c].Dropped; d > 0 {
				fmt.Fprintf(&b, " %s=%d", net.Class(c), d)
			}
		}
		b.WriteByte('\n')
	}
	for _, ev := range r.Failures {
		fmt.Fprintf(&b, "  crash   t=%.3fs mds%d\n", ev.At.Seconds(), ev.Node)
	}
	for _, ev := range r.Downs {
		fmt.Fprintf(&b, "  down    t=%.3fs mds%d (suspicion confirmed)\n", ev.At.Seconds(), ev.Node)
	}
	for _, ev := range r.Recoveries {
		fmt.Fprintf(&b, "  recover t=%.3fs mds%d (%d records warmed)\n", ev.At.Seconds(), ev.Node, ev.Warmed)
	}
	return b.String()
}

// DrainCheck verifies that after a drain (clients stopped, engine run
// past the last timeout) no operation is orphaned: every issued request
// either completed or was accounted as timed out.
func (c *Cluster) DrainCheck() error {
	if n := c.Requests(); n.Outstanding() != 0 {
		return fmt.Errorf("cluster: orphaned ops: issued=%d != completed=%d + timedout=%d",
			n.Issued, n.Completed, n.TimedOut)
	}
	return nil
}
