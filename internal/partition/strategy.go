// Package partition defines the metadata-partitioning strategy interface
// and implements the comparison strategies the paper evaluates against
// dynamic subtree partitioning (§3.1, §5): static subtree partitioning,
// file hashing, directory hashing, and Lazy Hybrid. The dynamic strategy
// itself — the paper's contribution — lives in internal/core and builds
// on this package's subtree table.
package partition

import (
	"dynmds/internal/metrics"
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

// Strategy decides which MDS is authoritative for each metadata item and
// describes the structural properties that shape MDS behaviour.
type Strategy interface {
	// Authority returns the index of the MDS responsible for serializing
	// updates to the inode.
	Authority(ino *namespace.Inode) int
	// AuthorityForName returns the MDS responsible for a
	// yet-to-be-created entry name inside dir (create/mkdir placement).
	AuthorityForName(dir *namespace.Inode, name string) int
	// DirGranular reports whether metadata is stored directory-granular
	// with embedded inodes (one I/O fetches a directory and its
	// children, enabling prefetch). File hashing and Lazy Hybrid
	// scatter individual inodes and return false.
	DirGranular() bool
	// NeedsPathTraversal reports whether serving a request requires the
	// ancestor (prefix) inode chain to be present in the serving MDS's
	// cache. Lazy Hybrid's dual-entry ACLs make traversal unnecessary.
	NeedsPathTraversal() bool
	// ClientComputable reports whether clients can compute the
	// authority directly (hash strategies) rather than discovering the
	// partition through replies (subtree strategies).
	ClientComputable() bool
}

// PopHalfLife is the half-life of every inode's decayed popularity
// counters (Tags.Pop and Tags.FwdPop), whoever bumps or reads them.
const PopHalfLife = 2 * sim.Second

// Tags is the per-inode scratch state higher layers hang off
// namespace.Inode.Aux: authority memoization, the decayed popularity
// counters used for traffic control, replication state, and Lazy Hybrid
// staleness epochs. One simulation owns a tree exclusively, so no
// locking is needed.
//
// The block holds no pointer and fits the 80-byte size class (the
// counters by value, the memo and the flags sharing the last word): a
// touched inode costs one allocation the collector never scans, and no
// later bump, read or memo write allocates (TestTagsBlockLayout,
// TestTagsAllocs).
type Tags struct {
	// Authority memoization: Auth (below, beside the flags) is valid
	// while AuthEpoch matches the partition table's epoch.
	AuthEpoch uint64

	// Pop is the decayed access counter (§4.4), meaningful once
	// PopTouched; its half-life is PopHalfLife.
	Pop metrics.Decay
	// FwdPop counts forwards of requests for this item (summed across
	// non-authoritative nodes); drives preemptive replication (§5.4).
	// Meaningful once FwdTouched, same half-life.
	FwdPop metrics.Decay

	// Lazy Hybrid epochs: for directories, the global update epoch at
	// which the directory's permissions/path last changed; for files,
	// the epoch whose effects have been folded into the file's
	// dual-entry ACL.
	LHDirEpoch uint64
	LHApplied  uint64

	// ReplicaSet is a bitmask of MDS nodes holding replicas of this
	// record (replicated prefixes or traffic-control copies). The
	// authority uses it to send coherence callbacks on updates (§4.2).
	// Clusters larger than 64 nodes track only the first 64 — the
	// paper's systems are "tens of MDSs".
	ReplicaSet uint64

	// UnflushedWriters is a bitmask of nodes whose replicas have
	// absorbed monotonic size/mtime updates not yet flushed to the
	// authority (§4.2). A stat at the authority triggers a callback to
	// these nodes for the latest values.
	UnflushedWriters uint64

	// Auth is the memoized authority; see AuthEpoch.
	Auth int32

	// PopTouched and FwdTouched record that the counter has been bumped
	// at least once. Policy reads skip an untouched counter, and a
	// checkpoint writes them as the counter's presence byte.
	PopTouched, FwdTouched bool
	// ReplicatedAll marks metadata replicated across the cluster by
	// traffic control.
	ReplicatedAll bool
	// HashedDir marks a directory whose entries are dynamically hashed
	// across the cluster (§4.3).
	HashedDir bool
}

// SetReplica marks node id as holding a replica.
func (t *Tags) SetReplica(id int) {
	if id < 64 {
		t.ReplicaSet |= 1 << uint(id)
	}
}

// ClearReplica removes node id from the replica set.
func (t *Tags) ClearReplica(id int) {
	if id < 64 {
		t.ReplicaSet &^= 1 << uint(id)
	}
}

// HasReplica reports whether node id holds a replica.
func (t *Tags) HasReplica(id int) bool {
	return id < 64 && t.ReplicaSet&(1<<uint(id)) != 0
}

// TagsOf returns the inode's tag block, allocating it on first use.
func TagsOf(n *namespace.Inode) *Tags {
	if t, ok := n.Aux.(*Tags); ok {
		return t
	}
	t := &Tags{}
	n.Aux = t
	return t
}

// Popularity returns the inode's decayed access counter to bump,
// marking it touched.
func Popularity(n *namespace.Inode) *metrics.Decay {
	t := TagsOf(n)
	t.PopTouched = true
	return &t.Pop
}

// FwdPopularity is Popularity for the forwarded-request counter.
func FwdPopularity(n *namespace.Inode) *metrics.Decay {
	t := TagsOf(n)
	t.FwdTouched = true
	return &t.FwdPop
}
