// Package core implements the paper's primary contribution: dynamic
// subtree partitioning of metadata across an MDS cluster (§4). It
// provides:
//
//   - DynamicSubtree: a partition.Strategy over a mutable subtree table,
//     optionally hashing the contents of individual oversized or hot
//     directories across the cluster (§4.3);
//   - TrafficControl: the popularity-driven replication policy that
//     manages client ignorance to disperse flash crowds (§4.4);
//   - Balancer: the heartbeat-driven load balancer that migrates
//     subtrees from busy to non-busy nodes (§4.3), preferring to
//     re-delegate whole previously imported subtrees to keep the
//     partition simple.
package core

import (
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
)

// DynamicSubtree is the dynamic subtree partitioning strategy. The
// embedded table is mutated at runtime by the Balancer; nothing else
// distinguishes it structurally from a static subtree partition — which
// is exactly the paper's experimental design (the static comparator "does
// not employ load balancing to adjust the initial partition").
type DynamicSubtree struct {
	Table *partition.SubtreeTable

	// HashDirThreshold, when > 0, dynamically hashes the contents of
	// any directory with at least this many entries across the cluster
	// (§4.3). Zero disables directory hashing.
	HashDirThreshold int
}

// NewDynamicSubtree builds the strategy with the paper's initial
// partition: directories near the root assigned by path hash.
func NewDynamicSubtree(n int, tree *namespace.Tree, partitionDepth int) *DynamicSubtree {
	t := partition.NewSubtreeTable(n)
	partition.InitialPartition(t, tree, partitionDepth)
	return &DynamicSubtree{Table: t}
}

// Authority implements partition.Strategy. Entries of a dynamically
// hashed directory are spread by (directory inode number, entry name);
// everything else follows the subtree table.
func (d *DynamicSubtree) Authority(ino *namespace.Inode) int {
	if p := ino.Parent(); p != nil && partition.TagsOf(p).Has(namespace.HashedDir) {
		return int(partition.NameHash(p.ID, ino.Name()) % uint64(d.Table.N()))
	}
	return d.Table.Authority(ino)
}

// AuthorityForName implements partition.Strategy.
func (d *DynamicSubtree) AuthorityForName(dir *namespace.Inode, name string) int {
	if partition.TagsOf(dir).Has(namespace.HashedDir) {
		return int(partition.NameHash(dir.ID, name) % uint64(d.Table.N()))
	}
	return d.Table.Authority(dir)
}

// DirGranular implements partition.Strategy.
func (d *DynamicSubtree) DirGranular() bool { return true }

// NeedsPathTraversal implements partition.Strategy.
func (d *DynamicSubtree) NeedsPathTraversal() bool { return true }

// ClientComputable implements partition.Strategy: clients learn the
// partition from replies — the ignorance traffic control exploits.
func (d *DynamicSubtree) ClientComputable() bool { return false }

// MaybeHashDir applies the dynamic directory-hashing policy to dir:
// hash it if it has grown past the threshold, consolidate it if it has
// shrunk below half the threshold (hysteresis). Reports whether the
// state changed.
func (d *DynamicSubtree) MaybeHashDir(dir *namespace.Inode) bool {
	if d.HashDirThreshold <= 0 || !dir.IsDir() {
		return false
	}
	tags := partition.TagsOf(dir)
	switch hashed := tags.Has(namespace.HashedDir); {
	case !hashed && dir.NumChildren() >= d.HashDirThreshold:
		tags.Set(namespace.HashedDir, true)
		return true
	case hashed && dir.NumChildren() < d.HashDirThreshold/2:
		tags.Set(namespace.HashedDir, false)
		return true
	}
	return false
}
