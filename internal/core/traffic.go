package core

import (
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
// place.
type TrafficControl struct {
	// Enabled gates the whole mechanism (Figure 7 contrasts on/off).
	Enabled bool
	// ReplicateThreshold is the decayed access count above which an
	// item is replicated cluster-wide.
	ReplicateThreshold float64
	// UnreplicateThreshold is the decayed count below which a
	// replicated item is consolidated back to its authority. Must be
	// below ReplicateThreshold (hysteresis).
	UnreplicateThreshold float64

	// PreemptiveThreshold, when > 0, implements the paper's suggested
	// improvement (§5.4): a non-authoritative node that forwards more
	// than this (decayed) number of requests for one item fetches a
	// replica preemptively, "without waiting to be told to do so",
	// shortening flash-crowd response time. Zero disables it.
	PreemptiveThreshold float64

	// Replications and Consolidations count policy transitions;
	// Preemptive counts replicas pulled by flooded non-authorities.
	Replications   uint64
	Consolidations uint64
	Preemptive     uint64
}

// DefaultTrafficControl returns the policy used by the experiments.
func DefaultTrafficControl() *TrafficControl {
	return &TrafficControl{
		Enabled:              true,
		ReplicateThreshold:   300,
		UnreplicateThreshold: 30,
	}
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

// Decide inspects the inode's (already bumped) popularity counter, whose
// half-life is the run's mds.Config.PopHalfLife, and returns the policy
// decision, updating the inode's replication flag. Callers apply the
// decision (pushing or expiring replicas) themselves.
func (tc *TrafficControl) Decide(now, halfLife sim.Time, ino *namespace.Inode) Decision {
	if tc == nil || !tc.Enabled {
		return Keep
	}
	tags := partition.TagsOf(ino)
	if !tags.PopTouched {
		return Keep
	}
	v := tags.Pop.Value(now, halfLife)
	switch {
	case !tags.ReplicatedAll && v >= tc.ReplicateThreshold:
		tags.ReplicatedAll = true
		tc.Replications++
		return Replicate
	case tags.ReplicatedAll && v < tc.UnreplicateThreshold:
		tags.ReplicatedAll = false
		tc.Consolidations++
		return Consolidate
	}
	return Keep
}

// Peek computes the policy decision without mutating anything: the
// tag block's by-value counter is read with metrics.Decay.Peek and the
// replication flag is left untouched. Sharded windows use Peek so
// concurrent shards never write shared inode state mid-window; the
// matching flag flip and statistics land through Commit at the next
// barrier. When the counter
// was bumped at the same instant (the serial path defers nothing, so
// the Add has already run), Peek returns exactly what Decide would.
func (tc *TrafficControl) Peek(now, halfLife sim.Time, ino *namespace.Inode) Decision {
	if tc == nil || !tc.Enabled {
		return Keep
	}
	tags := partition.TagsOf(ino)
	if !tags.PopTouched {
		return Keep
	}
	v := tags.Pop.Peek(now, halfLife)
	switch {
	case !tags.ReplicatedAll && v >= tc.ReplicateThreshold:
		return Replicate
	case tags.ReplicatedAll && v < tc.UnreplicateThreshold:
		return Consolidate
	}
	return Keep
}

// Commit applies a previously peeked decision: it flips the inode's
// replication flag and counts the transition. The flag is re-checked so
// duplicate commits for the same inode within one window collapse into
// one transition. Returns whether the flip happened.
func (tc *TrafficControl) Commit(d Decision, ino *namespace.Inode) bool {
	if tc == nil || !tc.Enabled || d == Keep {
		return false
	}
	tags := partition.TagsOf(ino)
	switch d {
	case Replicate:
		if tags.ReplicatedAll {
			return false
		}
		tags.ReplicatedAll = true
		tc.Replications++
	case Consolidate:
		if !tags.ReplicatedAll {
			return false
		}
		tags.ReplicatedAll = false
		tc.Consolidations++
	}
	return true
}

// Replicated reports whether replies should advertise the item as
// available cluster-wide.
func (tc *TrafficControl) Replicated(ino *namespace.Inode) bool {
	if tc == nil || !tc.Enabled {
		return false
	}
	return partition.TagsOf(ino).ReplicatedAll
}
