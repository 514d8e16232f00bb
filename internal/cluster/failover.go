package cluster

import (
	"fmt"

	"dynmds/internal/namespace"
)

// reassignRoots is the shared-storage takeover of §2.1.2, run when the
// suspicion protocol confirms a crashed node down (markDown): because
// metadata lives on a shared store rather than directly-attached disks,
// any node can assume a failed node's workload. Every subtree rooted at
// the victim is re-delegated to the surviving nodes, which start cold
// and re-read metadata on demand; each root goes to the currently
// least-loaded survivor by the decayed load metric (§5.1: a "weighted
// combination of node throughput and cache misses"). The victim's last
// observed load is split evenly across its roots as the estimated cost
// of each assignment, so a large failed workload spreads over several
// survivors instead of piling onto whichever node was idlest at the
// instant of failure.
//
// Only the dynamic strategy has this mechanism (the paper notes static
// partitions require manual redistribution): under the others a
// confirmed-down node is only routed around, and clients depend on
// retry timeouts.
func (c *Cluster) reassignRoots(victim int) error {
	roots := c.Dyn.Table.RootsOf(victim)
	if len(roots) == 0 {
		return nil
	}
	now := c.Eng.Now()
	load := make([]float64, len(c.Nodes))
	alive := make([]int, 0, len(c.Nodes)-1)
	for j, n := range c.Nodes {
		if j != victim && !n.Failed() && !c.NodeDown(j) {
			alive = append(alive, j)
			load[j] = n.Load(now)
		}
	}
	if len(alive) == 0 {
		return fmt.Errorf("cluster: no surviving nodes")
	}
	share := c.Nodes[victim].Load(now) / float64(len(roots))
	if share <= 0 {
		share = 1 // idle victim: still spread roots, one unit each
	}
	for _, root := range roots {
		best := pickLeastLoaded(alive, load)
		if err := c.Dyn.Table.Delegate(root, best); err != nil {
			return err
		}
		load[best] += share
	}
	if c.lostRoots == nil {
		c.lostRoots = make(map[int][]*namespace.Inode)
	}
	c.lostRoots[victim] = roots
	return nil
}

// pickLeastLoaded returns the alive node with the smallest load,
// breaking ties toward the lowest id (alive is in ascending order).
// Pure so the placement policy is unit-testable without a cluster.
func pickLeastLoaded(alive []int, load []float64) int {
	best := alive[0]
	for _, j := range alive[1:] {
		if load[j] < load[best] {
			best = j
		}
	}
	return best
}

// RecoverNode brings node i back. Its cache is pre-warmed from the
// bounded log's working set (§4.6), and under the dynamic strategy the
// subtrees failover reassigned away are failed back to it: the warmed
// working set is precisely those subtrees, so the rejoining node can
// serve them immediately, while waiting for the balancer's busy/avail
// hysteresis to refill an idle node can take indefinitely (no survivor
// is individually "busy" after a clean 1/n redistribution). Suspicion
// state against the node is cleared so peers resume sending to it.
func (c *Cluster) RecoverNode(i int) error {
	if i < 0 || i >= len(c.Nodes) {
		return fmt.Errorf("cluster: node %d out of range", i)
	}
	warmed := c.Nodes[i].Recover()
	if c.down != nil {
		c.down[i] = false
		c.strikes[i] = 0
	}
	if c.Dyn != nil {
		for _, root := range c.lostRoots[i] {
			if err := c.Dyn.Table.Delegate(root, i); err != nil {
				return err
			}
		}
		delete(c.lostRoots, i)
	}
	c.Recoveries = append(c.Recoveries, FaultEvent{At: c.Eng.Now(), Node: i, Warmed: warmed})
	return nil
}
