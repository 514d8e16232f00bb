// Package partition defines the metadata-partitioning strategy interface
// and implements every strategy the paper evaluates (§3.1, §5): the
// subtree partition, static or dynamic, with its directory hashing
// (§4.3), file hashing, directory hashing, and Lazy Hybrid. What makes
// a subtree partition dynamic — the balancer that moves its table and
// traffic control — lives in internal/core.
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
// counter (Tags.Pop) and of traffic control's forward counters, whoever
// bumps or reads them.
const PopHalfLife = 2 * sim.Second

// Tags is the per-inode record (namespace.Tags) this package and the
// MDS layers keep in the inode. One simulation owns a tree exclusively,
// so no locking is needed. The rarely set fields live elsewhere: Lazy
// Hybrid's epochs in LazyHybrid, forward counters in
// core.TrafficControl, unflushed-writer masks in mds.Writers.
type Tags = namespace.Tags

// MaxNodes is the largest cluster an authority memo can name: Tags.Auth
// is a 16-bit node index.
const MaxNodes = 1 << 16

// TagsOf returns the inode's tag record.
func TagsOf(n *namespace.Inode) *Tags { return &n.Tags }

// Popularity returns the inode's decayed access counter to bump,
// marking it touched.
func Popularity(n *namespace.Inode) *metrics.Decay {
	n.Tags.Set(namespace.PopTouched, true)
	return &n.Tags.Pop
}
