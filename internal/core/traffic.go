package core

import (
	"dynmds/internal/metrics"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
)

// TrafficControl is the cluster's one hot-metadata policy: MDS nodes
// "monitor metadata popularity with decaying access counters" (§4.4),
// every action on them is decided here, and the MDS only carries it
// out. It alone writes the ReplicatedAll tag (the checkpoint restore
// aside). A popular item is replicated across the cluster and replies
// tell clients it lives everywhere; once its popularity decays it is
// consolidated and replies point at its authority again, so no crowd
// of clients ever believes an unreplicated item is in one place. The
// rules: the §4.4 rule and the directory rule (hot-directory fan-out,
// below the root) through Peek/Commit, each consolidating below a
// tenth of its threshold (the §4.4 rule, when on, owns consolidation
// and wins a tie); the lease rule (Grant); §5.4's pull (Pull). A nil
// controller is every rule off (Figure 7 contrasts replication off and on).
type TrafficControl struct {
	// ReplicateThreshold is the decayed access count above which the
	// §4.4 rule replicates an item cluster-wide.
	ReplicateThreshold float64

	// PreemptiveThreshold, when > 0, arms §5.4's suggested improvement
	// beside the §4.4 rule: a non-authoritative node that forwards this
	// (decayed) number of requests for one item fetches a replica
	// "without waiting to be told to do so", shortening flash-crowd
	// response time.
	PreemptiveThreshold float64

	// Replications counts items the §4.4 rule replicated.
	Replications uint64

	rules uint8 // the rules ForCluster armed
	// fwd is the pull rule's state (nil without it): each item's decayed
	// forward count, summed across the nodes that forwarded it.
	fwd map[namespace.InodeID]metrics.Decay
}

const (
	ruleReplicate = 1 << iota // §4.4
	ruleDirs                  // hot-directory fan-out
	ruleLease                 // client read-lease grants
	rulePull                  // §5.4's preemptive pull
)

const (
	// DirThreshold is the decayed access count at which the directory
	// rule replicates a directory.
	DirThreshold = 200
	// GrantPopularity is the decayed access count from which the lease
	// rule grants a read lease: leases chase records already warming up.
	GrantPopularity = 20
)

// DefaultTrafficControl returns the policy used by the experiments.
func DefaultTrafficControl() *TrafficControl {
	return &TrafficControl{ReplicateThreshold: 300}
}

// Decision tells the MDS what to do after an access.
type Decision uint8

// Traffic-control decisions.
const (
	// Keep: no change to replication state.
	Keep Decision = iota
	// Replicate (the §4.4 rule) and ReplicateDir (the directory rule):
	// push copies to the rest of the cluster now.
	Replicate
	ReplicateDir
	// Consolidate: stop advertising replicas; they will expire.
	Consolidate
)

// ForCluster returns a fresh controller for one cluster to run, with
// nothing counted. Replication needs peers: with them, tc's thresholds
// arm the §4.4 rule and, when PreemptiveThreshold is set, the pull (a
// nil tc leaves both off), and dirs arms the directory rule. leases
// arms the lease rule on any cluster. It returns nil when no rule is on.
func (tc *TrafficControl) ForCluster(peers, dirs, leases bool) *TrafficControl {
	out := &TrafficControl{}
	if peers && tc != nil {
		out.ReplicateThreshold, out.PreemptiveThreshold = tc.ReplicateThreshold, tc.PreemptiveThreshold
		out.rules |= ruleReplicate
		if tc.PreemptiveThreshold > 0 {
			out.rules |= rulePull
			out.fwd = make(map[namespace.InodeID]metrics.Decay)
		}
	}
	if peers && dirs {
		out.rules |= ruleDirs
	}
	if leases {
		out.rules |= ruleLease
	}
	if out.rules == 0 {
		return nil
	}
	return out
}

// Forwards returns the pull rule's forward counters, keyed by inode
// (nil without the rule), for the checkpoint codec.
func (tc *TrafficControl) Forwards() map[namespace.InodeID]metrics.Decay {
	if tc == nil {
		return nil
	}
	return tc.fwd
}

// Pull is the pull rule, asked on every forward: it counts a forwarded
// read of ino and reports whether the item's decayed forward count has
// reached PreemptiveThreshold, so the forwarding node should pull a
// replica itself instead of waiting for the authority to push one.
func (tc *TrafficControl) Pull(now sim.Time, ino *namespace.Inode, update bool) bool {
	if tc == nil || tc.rules&rulePull == 0 || update {
		return false
	}
	d := tc.fwd[ino.ID]
	d.Add(now, partition.PopHalfLife, 1)
	tc.fwd[ino.ID] = d
	return d.Peek(now, partition.PopHalfLife) >= tc.PreemptiveThreshold
}

// Grant is the lease rule, asked on every reply: a read of a record
// whose decayed popularity has reached GrantPopularity carries a lease.
func (tc *TrafficControl) Grant(now sim.Time, ino *namespace.Inode, update bool) bool {
	if tc == nil || tc.rules&ruleLease == 0 || update {
		return false
	}
	tags := partition.TagsOf(ino)
	return tags.Has(namespace.PopTouched) && tags.Pop.Peek(now, partition.PopHalfLife) >= GrantPopularity
}

// Peek computes the replication rules' decision without mutating
// anything; the caller applies it with Commit. Peek, not Value, because
// Value renormalises the stored counter, whose bits feed every later read.
func (tc *TrafficControl) Peek(now sim.Time, ino *namespace.Inode) Decision {
	if tc == nil {
		return Keep
	}
	tags := partition.TagsOf(ino)
	if !tags.Has(namespace.PopTouched) {
		return Keep
	}
	v := tags.Pop.Peek(now, partition.PopHalfLife)
	items := tc.rules&ruleReplicate != 0
	dir := tc.rules&ruleDirs != 0 && ino.IsDir() && ino.Parent() != nil
	switch replicated := tags.Has(namespace.ReplicatedAll); {
	case !replicated && items && v >= tc.ReplicateThreshold:
		return Replicate
	case !replicated && dir && v >= DirThreshold:
		return ReplicateDir
	case replicated && items && v < tc.ReplicateThreshold/10,
		replicated && !items && dir && v < DirThreshold/10:
		return Consolidate
	}
	return Keep
}

// Commit applies a peeked decision: it flips the inode's replication
// flag and counts a §4.4 replication, and reports whether the flag
// flipped (a commit the flag already reflects counts nothing).
func (tc *TrafficControl) Commit(d Decision, ino *namespace.Inode) bool {
	if tc == nil || d == Keep {
		return false
	}
	tags := partition.TagsOf(ino)
	replicate := d != Consolidate
	if tags.Has(namespace.ReplicatedAll) == replicate {
		return false
	}
	tags.Set(namespace.ReplicatedAll, replicate)
	if d == Replicate {
		tc.Replications++
	}
	return true
}

// NotePulled marks an item a non-authoritative node pulled a replica of
// on its own (§5.4) as replicated cluster-wide; the authority's
// hysteresis consolidates it like any other.
func (tc *TrafficControl) NotePulled(ino *namespace.Inode) {
	partition.TagsOf(ino).Set(namespace.ReplicatedAll, true)
}

// Replicated reports whether replies should advertise the item as
// available cluster-wide.
func (tc *TrafficControl) Replicated(ino *namespace.Inode) bool {
	if tc == nil {
		return false
	}
	return partition.TagsOf(ino).Has(namespace.ReplicatedAll)
}
