package core

import (
	"dynmds/internal/metrics"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
)

// TrafficControl implements the paper's flash-crowd defence (§4.4). MDS
// nodes monitor metadata popularity with decaying access counters (the
// MDS bumps the counter on every authoritative access); the counter
// approximates how widely an item appears in client caches because every
// reply that advertises an item also delivered it to a client. When an
// item becomes popular its authority replicates it across the cluster
// and replies start telling clients the item lives everywhere; when
// popularity decays the item is consolidated and replies point at the
// authority again. Client ignorance is thus managed so that no crowd of
// clients ever simultaneously believes an unreplicated item is in one
// place. A nil controller is traffic control switched off (Figure 7
// contrasts off and on).
type TrafficControl struct {
	// ReplicateThreshold is the decayed access count above which an
	// item is replicated cluster-wide. A replicated item is consolidated
	// back to its authority once its count falls below a tenth of it
	// (hysteresis).
	ReplicateThreshold float64

	// PreemptiveThreshold, when > 0, implements the paper's suggested
	// improvement (§5.4): a non-authoritative node that forwards more
	// than this (decayed) number of requests for one item fetches a
	// replica preemptively, "without waiting to be told to do so",
	// shortening flash-crowd response time. Zero disables it.
	PreemptiveThreshold float64

	// Replications counts items the policy replicated.
	Replications uint64

	// fwd holds each item's decayed forward count, summed across the
	// non-authoritative nodes that forwarded requests for it (§5.4);
	// an item never forwarded has no entry. Only preemptive
	// replication writes it.
	fwd map[namespace.InodeID]metrics.Decay
}

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
	// Replicate: push copies to the rest of the cluster now.
	Replicate
	// Consolidate: stop advertising replicas; they will expire.
	Consolidate
)

// ForCluster returns a fresh controller with tc's thresholds for one
// cluster to run: no replications counted, no forward counts.
func (tc *TrafficControl) ForCluster() *TrafficControl {
	return &TrafficControl{
		ReplicateThreshold:  tc.ReplicateThreshold,
		PreemptiveThreshold: tc.PreemptiveThreshold,
	}
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
	switch replicated := tags.Has(namespace.ReplicatedAll); {
	case !replicated && v >= tc.ReplicateThreshold:
		return Replicate
	case replicated && v < tc.ReplicateThreshold/10:
		return Consolidate
	}
	return Keep
}

// Commit applies a previously peeked decision: it flips the inode's
// replication flag and counts a replication. The flag is re-checked,
// so a commit the flag already reflects counts nothing. Returns whether
// the flip happened.
func (tc *TrafficControl) Commit(d Decision, ino *namespace.Inode) bool {
	if tc == nil || d == Keep {
		return false
	}
	tags := partition.TagsOf(ino)
	replicate := d == Replicate
	if tags.Has(namespace.ReplicatedAll) == replicate {
		return false
	}
	tags.Set(namespace.ReplicatedAll, replicate)
	if replicate {
		tc.Replications++
	}
	return true
}

// Replicated reports whether replies should advertise the item as
// available cluster-wide.
func (tc *TrafficControl) Replicated(ino *namespace.Inode) bool {
	if tc == nil {
		return false
	}
	return partition.TagsOf(ino).Has(namespace.ReplicatedAll)
}
