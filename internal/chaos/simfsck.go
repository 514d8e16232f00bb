package chaos

import (
	"errors"
	"fmt"

	"dynmds/internal/cache"
	"dynmds/internal/cluster"
	"dynmds/internal/namespace"
	"dynmds/internal/net"
	"dynmds/internal/partition"
)

// Baseline captures pre-run facts Fsck needs to scope its checks.
// Capture it after cluster.New and before Run.
type Baseline struct {
	// MaxInodeID is the namespace's ID watermark before the run. IDs
	// are never reused, so the tree's watermark after the run may not
	// fall below it.
	MaxInodeID namespace.InodeID
	// PriorMaxID is the watermark recorded in the checkpoint a restored
	// run resumed from (zero for fresh runs). IDs are never reused, so
	// the watermark must be monotone across restore.
	PriorMaxID namespace.InodeID
}

// Capture records the baseline for a freshly built cluster.
func Capture(cl *cluster.Cluster) Baseline {
	return Baseline{MaxInodeID: cl.Tree().MaxID()}
}

// Fsck is the cluster-wide consistency checker: it validates a
// finished, **drained** run (cluster.Drain — arrivals stopped, engine
// run until nothing is in flight) against every invariant that must
// survive arbitrary fault schedules. It returns all violations joined
// into one error, or nil. The catalogue:
//
//   - drained: nothing in flight (cluster.InFlight);
//   - structural: namespace tree, per-node cache, and subtree-table
//     invariants (authority is a partition: assign/mirror agreement,
//     each root owned by exactly one in-range node);
//   - overlay aging: no tombstoned base inode resolves by ID, no live
//     inode is reachable through a tombstoned entry (the parent's name
//     index must still return it), the tombstone count matches the
//     delete−resurrect accounting, and the ID watermark is monotone
//     across checkpoint/restore;
//   - authority: every reachable inode resolves to an in-range
//     authority; a node that crashed and was then confirmed down (and
//     never recovered) holds no delegated roots — failover reassigned
//     them and nothing may hand them back to a dead node;
//   - replica coherence: on every live node, each Replica-class cache
//     entry is recorded in the inode's replica set; no replica or
//     unflushed-writer bit names a node outside the cluster; after the
//     drain, unflushed-writer bits on reachable inodes belong only to
//     failed nodes (live replicas flush within the drain window);
//   - fabric conservation: per class sent == delivered + dropped;
//   - op accounting: requests crossed the client edge exactly once per
//     issue or retry;
//   - journal: each node's log agrees with its index of newest records
//     (one slot per distinct inode, each naming its newest record), and
//     the recovery warm counts are within the log's capacity.
func Fsck(cl *cluster.Cluster, base Baseline) error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("simfsck: "+format, args...))
	}

	if err := cl.InFlight(); err != nil {
		fail("not drained: %v", err)
	}
	checkStructures(cl, fail)
	checkAging(cl, base, fail)
	checkNamespace(cl, base, fail)
	checkAuthority(cl, fail)
	checkReplicaEntries(cl, fail)
	checkFabric(cl, fail)
	checkOps(cl, fail)
	checkJournal(cl, fail)

	return errors.Join(errs...)
}

// checkStructures runs the per-structure invariant checkers.
func checkStructures(cl *cluster.Cluster, fail func(string, ...any)) {
	if err := cl.Tree().CheckInvariants(); err != nil {
		fail("namespace: %v", err)
	}
	for i, n := range cl.Nodes {
		if err := n.Cache().CheckInvariants(); err != nil {
			fail("cache mds%d: %v", i, err)
		}
	}
	if cl.Table != nil {
		if err := cl.Table.CheckConsistency(); err != nil {
			fail("%v", err)
		}
	}
}

// checkAging validates the overlay-aging invariants: tombstone
// accounting balances, tombstoned base IDs are truly dead, every
// reachable inode is live (not tombstoned) and findable through its
// parent's name index — the frozen base's index must never bring a
// destroyed or renamed-away entry back to life — and the ID watermark
// never regresses across a restore.
func checkAging(cl *cluster.Cluster, base Baseline, fail func(string, ...any)) {
	tree := cl.Tree()
	if tree.MaxID() < base.MaxInodeID {
		fail("aging: MaxID %d below the pre-run watermark %d", tree.MaxID(), base.MaxInodeID)
	}
	if tree.MaxID() < base.PriorMaxID {
		fail("aging: MaxID %d regressed below the checkpoint watermark %d (restore lost allocations)",
			tree.MaxID(), base.PriorMaxID)
	}
	if got := uint64(tree.TombstoneCount()); got != tree.BaseDeletes {
		fail("aging: %d tombstones, %d base deletes", got, tree.BaseDeletes)
	}
	bad := 0
	tree.ForEachTombstone(func(id namespace.InodeID) {
		if bad >= 3 {
			return
		}
		if ino, ok := tree.ByID(id); ok {
			fail("aging: tombstoned inode %d still resolves to %s", id, ino.Path())
			bad++
		}
	})
	bad = 0
	tree.Walk(func(ino *namespace.Inode) bool {
		if bad >= 3 {
			return false
		}
		if tree.Tombstoned(ino.ID) {
			fail("aging: reachable inode %s (id %d) is tombstoned", ino.Path(), ino.ID)
			bad++
		}
		if p := ino.Parent(); p != nil {
			got, ok := p.LookupChild(ino.Name())
			if !ok || got != ino {
				fail("aging: %s (id %d) not reachable through its parent's name index", ino.Path(), ino.ID)
				bad++
			}
		}
		return true
	})
}

// checkNamespace walks every reachable inode once, validating the
// per-inode tag invariants: authority in range, replica and
// unflushed-writer bitmasks confined to real nodes, and — after the
// drain — unflushed-writer bits only on failed nodes (a live replica's
// flusher ticks at least twice within the drain window; inodes
// destroyed while dirty are unreachable and exempt by design).
func checkNamespace(cl *cluster.Cluster, base Baseline, fail func(string, ...any)) {
	n := len(cl.Nodes)
	outOfRange := ^uint64(0) << uint(n)
	bad := 0
	writers := cl.Writers()
	cl.Tree().Walk(func(ino *namespace.Inode) bool {
		if bad >= 5 { // cap the error spam; one walk still covers all checks
			return false
		}
		if a := cl.Strategy.Authority(ino); a < 0 || a >= n {
			fail("authority: %s resolves to out-of-range mds %d", ino.Path(), a)
			bad++
		}
		if bits := partition.TagsOf(ino).ReplicaSet & outOfRange; bits != 0 {
			fail("replica set of %s names nodes outside the cluster (mask %#x, %d nodes)",
				ino.Path(), bits, n)
			bad++
		}
		w := writers[ino.ID]
		if bits := w & outOfRange; bits != 0 {
			fail("unflushed-writer set of %s names nodes outside the cluster (mask %#x, %d nodes)",
				ino.Path(), bits, n)
			bad++
		}
		for i := 0; i < n; i++ {
			if w&(1<<uint(i)) != 0 && !cl.Nodes[i].Failed() {
				fail("unflushed write on %s held by live mds%d after drain", ino.Path(), i)
				bad++
				break
			}
		}
		return true
	})
}

// checkAuthority verifies failover completed: a node that is both
// failed and suspicion-confirmed down — with the confirmation at or
// after its last crash, and no recovery since — must own no delegated
// roots, provided at least one node is fully live to receive them.
// (An undetected crash may legitimately still own roots: detection is
// traffic-driven. A node marked down before its crash may have been
// re-delegated to while it was still alive, so only post-crash
// confirmations are conclusive.)
func checkAuthority(cl *cluster.Cluster, fail func(string, ...any)) {
	if !cl.Reassigns() {
		return // only the dynamic strategy reassigns on failure
	}
	survivor := false
	for i, node := range cl.Nodes {
		if !node.Failed() && !cl.NodeDown(i) {
			survivor = true
			break
		}
	}
	if !survivor {
		return // nowhere to fail over to; the invariant is vacuous
	}
	last := func(events []cluster.FaultEvent, node int) (at int64, ok bool) {
		for _, ev := range events {
			if ev.Node == node {
				at, ok = int64(ev.At), true
			}
		}
		return at, ok
	}
	for i, node := range cl.Nodes {
		if !node.Failed() || !cl.NodeDown(i) {
			continue
		}
		crashAt, crashed := last(cl.Failures, i)
		if !crashed {
			continue
		}
		if recAt, rec := last(cl.Recoveries, i); rec && recAt >= crashAt {
			continue
		}
		downAt, down := last(cl.Downs, i)
		if !down || downAt < crashAt {
			continue
		}
		if roots := cl.Table.RootsOf(i); len(roots) > 0 {
			fail("failover: dead mds%d (crashed, confirmed down) still owns %d delegated roots, first %s",
				i, len(roots), roots[0].Path())
		}
	}
}

// checkReplicaEntries verifies cache/replica-set agreement on live
// nodes: every Replica-class entry must be recorded in its inode's
// replica set (the insert paths set the bit; only the node's own
// eviction clears it). The converse — bit implies cached — does not
// hold and is not checked: bulk removals drop entries without
// notifications by design.
func checkReplicaEntries(cl *cluster.Cluster, fail func(string, ...any)) {
	for i, node := range cl.Nodes {
		if node.Failed() {
			continue
		}
		bad := 0
		node.Cache().ForEach(func(e *cache.Entry) {
			if e.Class != cache.Replica || bad >= 3 {
				return
			}
			if !partition.TagsOf(e.Ino).HasReplica(i) {
				fail("replica entry for %s cached on live mds%d but absent from its replica set",
					e.Ino.Path(), i)
				bad++
			}
		})
	}
}

// checkFabric verifies message conservation after the drain.
func checkFabric(cl *cluster.Cluster, fail func(string, ...any)) {
	for c := 0; c < net.NumClasses; c++ {
		cs := cl.Fab.Class(net.Class(c))
		if cs.Sent != cs.Delivered+cs.Dropped {
			fail("fabric %s: sent %d != delivered %d + dropped %d",
				net.Class(c), cs.Sent, cs.Delivered, cs.Dropped)
		}
	}
}

// checkOps verifies client-side op accounting.
func checkOps(cl *cluster.Cluster, fail func(string, ...any)) {
	// Retransmissions cross the edge once more per retry; leased hits
	// complete locally and never cross it.
	n := cl.Requests()
	issued, retries := n.Issued, n.Retries
	if p := cl.Pop; p != nil {
		issued -= p.LeaseHits()
	}
	if req := cl.Fab.Class(net.Request); req.Sent != issued+retries {
		fail("ops: %d requests crossed the client edge, clients issued %d + retried %d",
			req.Sent, issued, retries)
	}
	checkLeases(cl, fail)
}

// checkLeases verifies the lease plane left no coherence holes: every
// unexpired, current-generation slab slot is known to the registry
// (Plane.Dangling), and every delivered recall was acknowledged to its
// authority — acks are sent exactly on delivery, so the identity holds
// even when a fault plane drops recall notices.
func checkLeases(cl *cluster.Cluster, fail func(string, ...any)) {
	if cl.Lease == nil {
		return
	}
	if n := cl.Lease.Dangling(cl.Eng.Now()); n != 0 {
		fail("leases: %d dangling slab slots (valid at a client, unknown to the registry)", n)
	}
	recall := cl.Fab.Class(net.LeaseRecall)
	ack := cl.Fab.Class(net.LeaseAck)
	if ack.Sent != recall.Delivered {
		fail("leases: %d acks sent for %d delivered recalls", ack.Sent, recall.Delivered)
	}
}

// checkJournal verifies each node's bounded log against its index
// (storage.Store.CheckJournal, which allocates nothing) and that the
// recovery warm counts are plausible. (Recover() pre-warms from the
// log's distinct working set; entries for destroyed inodes are skipped
// by design, so warmed <= capacity is the strongest post-hoc bound.)
func checkJournal(cl *cluster.Cluster, fail func(string, ...any)) {
	for i, node := range cl.Nodes {
		if err := node.Store().CheckJournal(); err != nil {
			fail("journal mds%d: %v", i, err)
		}
	}
	capacity := cl.Cfg.MDS.Storage.LogCapacity
	if capacity < 1 {
		capacity = 1 // storage.New clamps the same way
	}
	for _, ev := range cl.Recoveries {
		if ev.Warmed < 0 || ev.Warmed > capacity {
			fail("journal: recovery of mds%d warmed %d records, log capacity %d",
				ev.Node, ev.Warmed, capacity)
		}
	}
}
