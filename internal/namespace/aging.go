package namespace

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// This file holds the overlay-aging surface: tombstone accounting and
// the compaction fix for the worst degradation an aged overlay shows.
//
// Under sustained create/delete churn the gone map grows by one entry
// per destroyed base inode. Every ByID on a base ID — the hot path of
// op dispatch, cache fills, and lease grants — then pays a hash probe
// against a map with millions of entries, and the GC rescans all of
// them every cycle. CompactTombstones swaps the map for a dense bitset
// (one bit per base inode): the probe becomes a single AND, and the
// bitset is pointer-free so the GC skips it. The swap is purely
// representational — simulation results are bit-identical with the fix
// on or off, which TestCompactTombstonesDigestInvariant pins.

// TombstoneCount returns the number of tombstoned base inodes.
func (t *Tree) TombstoneCount() int {
	if t.dead != nil {
		n := 0
		for _, w := range t.dead {
			n += bits.OnesCount64(w)
		}
		return n
	}
	return len(t.gone)
}

// Tombstoned reports whether a base ID has been destroyed in this
// overlay. IDs outside the base are never tombstoned.
func (t *Tree) Tombstoned(id InodeID) bool {
	if t.base == nil || !t.base.contains(id) {
		return false
	}
	if t.dead != nil {
		return t.dead[id>>6]&(1<<(id&63)) != 0
	}
	_, dd := t.gone[id]
	return dd
}

// TombstonesCompacted reports whether the bitset representation is
// installed.
func (t *Tree) TombstonesCompacted() bool { return t.dead != nil }

// CompactTombstones migrates the tombstone set from the gone map to the
// dense bitset and drops the map. Idempotent; returns the number of
// tombstones migrated (0 if already compacted or not an overlay).
func (t *Tree) CompactTombstones() int {
	if t.base == nil || t.dead != nil {
		return 0
	}
	t.dead = make([]uint64, len(t.base.nodes)/64+1)
	for id := range t.gone {
		t.dead[id>>6] |= 1 << (id & 63)
	}
	n := len(t.gone)
	t.gone = nil
	return n
}

// ForEachTombstone visits tombstoned base IDs in ascending order.
func (t *Tree) ForEachTombstone(fn func(InodeID)) {
	if t.dead != nil {
		for wi, w := range t.dead {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				fn(InodeID(wi*64 + b))
			}
		}
		return
	}
	// The map path sorts for determinism; it is cold (checkpoints only).
	ids := make([]InodeID, 0, len(t.gone))
	for id := range t.gone {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fn(id)
	}
}

// noteLazyLookup records one read-through to the base name index.
// Atomic: lookups run concurrently across shards during windows.
func (t *Tree) noteLazyLookup(miss bool) {
	atomic.AddUint64(&t.lazyLookups, 1)
	if miss {
		atomic.AddUint64(&t.lazyMisses, 1)
	}
}

// LazyStats returns the cumulative read-through lookup and miss counts.
func (t *Tree) LazyStats() (lookups, misses uint64) {
	return atomic.LoadUint64(&t.lazyLookups), atomic.LoadUint64(&t.lazyMisses)
}
