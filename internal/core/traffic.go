package core

import (
	"dynmds/internal/metrics"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
)

// TrafficControl implements the paper's flash-crowd defence (§4.4) and
// is the one owner of cluster-wide replication and of the ReplicatedAll
// tag (the checkpoint restore aside). MDS nodes monitor metadata
// popularity with decaying access counters (the MDS bumps the counter
// on every authoritative access); the counter approximates how widely
// an item appears in client caches because every reply that advertises
// an item also delivered it to a client. When an item becomes popular
// its authority replicates it across the cluster and replies start
// telling clients the item lives everywhere; when popularity decays the
// item is consolidated and replies point at the authority again. Client ignorance is thus managed so that no crowd of
// clients ever simultaneously believes an unreplicated item is in one
// place. A nil controller is replication switched off (Figure 7
// contrasts off and on). A second rule shares the signal and the tag:
// the directory rule (hot-directory fan-out) replicates a directory
// below the root at DirThreshold and consolidates it below a tenth of
// that, unless the §4.4 rule is on: then its tenth owns consolidation,
// and it wins a tie.
type TrafficControl struct {
	// ReplicateThreshold is the decayed access count above which the
	// §4.4 rule replicates an item cluster-wide. A replicated item is
	// consolidated back to its authority once its count falls below a
	// tenth of it (hysteresis).
	ReplicateThreshold float64

	// PreemptiveThreshold, when > 0, implements the paper's suggested
	// improvement (§5.4): a non-authoritative node that forwards more
	// than this (decayed) number of requests for one item fetches a
	// replica preemptively, "without waiting to be told to do so",
	// shortening flash-crowd response time. Zero disables it.
	PreemptiveThreshold float64

	// Replications counts items the §4.4 rule replicated.
	Replications uint64

	// dirs arms the directory rule; dirsOnly leaves the §4.4 rule off
	// (a controller built for fan-out alone).
	dirs, dirsOnly bool

	// fwd holds each item's decayed forward count, summed across the
	// non-authoritative nodes that forwarded requests for it (§5.4);
	// an item never forwarded has no entry. Only preemptive
	// replication writes it.
	fwd map[namespace.InodeID]metrics.Decay
}

// DirThreshold is the decayed access count at which the directory rule
// replicates a directory below the root cluster-wide.
const DirThreshold = 200

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

// ForCluster returns a fresh controller for one cluster to run, with no
// replications counted and no forward counts: tc's thresholds for the
// §4.4 rule (a nil tc leaves that rule off) and, when dirs is set, the
// directory rule. It returns nil when neither rule is on.
func (tc *TrafficControl) ForCluster(dirs bool) *TrafficControl {
	switch {
	case tc != nil:
		return &TrafficControl{ReplicateThreshold: tc.ReplicateThreshold,
			PreemptiveThreshold: tc.PreemptiveThreshold, dirs: dirs}
	case dirs:
		return &TrafficControl{dirs: true, dirsOnly: true}
	}
	return nil
}

// Forwards returns the controller's forward counters, keyed by inode
// (nil without traffic control): NoteForward's state, and the
// checkpoint codec's.
func (tc *TrafficControl) Forwards() map[namespace.InodeID]metrics.Decay {
	if tc == nil {
		return nil
	}
	if tc.fwd == nil {
		tc.fwd = make(map[namespace.InodeID]metrics.Decay)
	}
	return tc.fwd
}

// NoteForward counts one forwarded request for ino and returns the
// item's decayed forward count.
func (tc *TrafficControl) NoteForward(now sim.Time, ino *namespace.Inode) float64 {
	fwd := tc.Forwards()
	d := fwd[ino.ID]
	d.Add(now, partition.PopHalfLife, 1)
	fwd[ino.ID] = d
	return d.Peek(now, partition.PopHalfLife)
}

// Peek computes the policy decision without mutating anything: the
// inode's by-value counter is read with metrics.Decay.Peek and the
// replication flag is left untouched; the caller applies the decision
// with Commit. Peek, not Value, because Value renormalises the stored
// counter, and the stored bits feed every later read.
func (tc *TrafficControl) Peek(now sim.Time, ino *namespace.Inode) Decision {
	if tc == nil {
		return Keep
	}
	tags := partition.TagsOf(ino)
	if !tags.Has(namespace.PopTouched) {
		return Keep
	}
	v := tags.Pop.Peek(now, partition.PopHalfLife)
	dir := tc.dirs && ino.IsDir() && ino.Parent() != nil
	switch replicated := tags.Has(namespace.ReplicatedAll); {
	case !replicated && !tc.dirsOnly && v >= tc.ReplicateThreshold:
		return Replicate
	case !replicated && dir && v >= DirThreshold:
		return ReplicateDir
	case replicated && !tc.dirsOnly && v < tc.ReplicateThreshold/10,
		replicated && tc.dirsOnly && dir && v < DirThreshold/10:
		return Consolidate
	}
	return Keep
}

// Commit applies a previously peeked decision: it flips the inode's
// replication flag and counts a §4.4 replication. The flag is
// re-checked, so a commit the flag already reflects counts nothing.
// Returns whether the flip happened.
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
