package cluster

import (
	"fmt"
	"strings"

	"dynmds/internal/net"
	"dynmds/internal/sim"
)

// Fault-mode defaults, applied to zero-valued resilience knobs when a
// non-empty fault schedule is configured. Without retry and timeout
// paths an injected crash or message drop would hang clients forever;
// with them every fault is survivable out of the box.
const (
	defaultRetryTimeout = 150 * sim.Millisecond
	defaultMaxRetries   = 8
	// The fetch timeout must dwarf a loaded peer's disk queue (the
	// response rides behind its read disk), or cold caches trigger
	// storms of duplicate reads; it is a lost-message backstop, not a
	// failure detector.
	defaultFetchTimeout = 400 * sim.Millisecond
	// The forward ack is sent before CPU/disk service, so its deadline
	// only needs to cover two network hops plus scheduling noise.
	defaultFwdTimeout         = 20 * sim.Millisecond
	defaultSuspicionThreshold = 3
)

// applyFaultDefaults fills zero-valued timeout knobs; explicit settings
// are never overridden.
func applyFaultDefaults(cfg *Config) {
	if cfg.Client.RetryTimeout <= 0 {
		cfg.Client.RetryTimeout = defaultRetryTimeout
	}
	if cfg.Client.MaxRetries <= 0 {
		cfg.Client.MaxRetries = defaultMaxRetries
	}
	if cfg.MDS.FetchTimeout <= 0 {
		cfg.MDS.FetchTimeout = defaultFetchTimeout
	}
	if cfg.MDS.FwdTimeout <= 0 {
		cfg.MDS.FwdTimeout = defaultFwdTimeout
	}
	if cfg.SuspicionThreshold <= 0 {
		cfg.SuspicionThreshold = defaultSuspicionThreshold
	}
}

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
	for _, ev := range c.sched.Crashes {
		if ev.At <= after {
			continue
		}
		ev := ev
		c.Eng.At(ev.At, func() {
			c.Nodes[ev.Node].Fail()
			c.Failures = append(c.Failures, FaultEvent{At: ev.At, Node: ev.Node})
		})
	}
	for _, ev := range c.sched.Recovers {
		if ev.At <= after {
			continue
		}
		ev := ev
		c.Eng.At(ev.At, func() {
			c.RecoverNode(ev.Node) //nolint:errcheck // node index validated at parse
		})
	}
	for _, w := range c.sched.Slows {
		w := w
		if w.From > after {
			c.Eng.At(w.From, func() { c.Nodes[w.Node].SetSlow(w.Factor) })
		}
		if w.To > after {
			c.Eng.At(w.To, func() { c.Nodes[w.Node].SetSlow(1) })
		}
	}
}

// Suspect implements mds.FaultCluster: one missed-timeout strike
// against peer. At SuspicionThreshold strikes the peer is marked down:
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
	if c.strikes[peer] >= c.Cfg.SuspicionThreshold {
		c.markDown(peer)
	}
}

// Exonerate implements mds.FaultCluster: a reply or ack from the peer
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

// NodeDown implements mds.FaultCluster.
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
	if c.Dyn != nil {
		c.reassignRoots(peer) //nolint:errcheck // delegation over a live table
	}
}

// Drain stops every client and runs the engine two simulated seconds
// past the configured duration, so every bounded message chain
// completes or times out (the longest — a retried, forwarded request
// with a disk fetch — is well under a second) and only the perpetual
// tickers (flushers, balancer) remain. Conservation checks and the
// chaos consistency checker (internal/chaos) are only meaningful on a
// drained cluster; call after Run.
func (c *Cluster) Drain() {
	for _, cl := range c.Clients {
		cl.Stop()
	}
	if c.Pop != nil {
		c.Pop.Stop()
	}
	if c.group != nil {
		c.group.Run(c.Cfg.Duration + 2*sim.Second)
		return
	}
	c.Eng.RunUntil(c.Cfg.Duration + 2*sim.Second)
}

// FaultSummary renders the human-readable fault block for a finished
// run: the resilience counters, per-class drop counts, and the injected
// crash / confirmed-down / recovery timeline. Empty string on
// fault-free runs. mdsim prints this after a custom -faults run.
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
// either completed or was accounted as timed out, and no client still
// holds an in-flight request. It returns the first violation found.
func (c *Cluster) DrainCheck() error {
	if c.Pop != nil {
		if n := c.Pop.RetryOutstanding(); n > 0 {
			return fmt.Errorf("cluster: population holds %d boxed requests after drain", n)
		}
		issued, completed, timedOut := c.Pop.Issued(), c.Pop.Completed(), c.Pop.TimedOut()
		if issued != completed+timedOut {
			return fmt.Errorf("cluster: orphaned population ops: issued=%d != completed=%d + timedout=%d",
				issued, completed, timedOut)
		}
	}
	for _, cl := range c.Clients {
		s := cl.Stats
		if cl.Inflight() {
			return fmt.Errorf("cluster: client has an unaccounted in-flight request (issued=%d completed=%d timedout=%d)",
				s.Issued, s.Completed, s.TimedOut)
		}
		if s.Issued != s.Completed+s.TimedOut {
			return fmt.Errorf("cluster: orphaned ops: issued=%d != completed=%d + timedout=%d",
				s.Issued, s.Completed, s.TimedOut)
		}
	}
	return nil
}
