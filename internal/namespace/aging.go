package namespace

import "math/bits"

// This file holds the overlay-aging surface: the tombstone bitset's
// accounting and the name-index read-through counters.

// TombstoneCount returns the number of tombstoned base inodes.
func (t *Tree) TombstoneCount() int {
	n := 0
	for _, w := range t.dead {
		n += bits.OnesCount64(w)
	}
	return n
}

// Tombstoned reports whether a base ID has been destroyed in this
// overlay. IDs outside the base are never tombstoned.
func (t *Tree) Tombstoned(id InodeID) bool {
	return t.base.contains(id) && t.dead != nil && t.dead[id>>6]&(1<<(id&63)) != 0
}

// bury sets base ID id's tombstone bit, allocating the bitset on the
// first one.
func (t *Tree) bury(id InodeID) {
	if t.dead == nil {
		t.dead = make([]uint64, len(t.base.nodes)/64+1)
	}
	t.dead[id>>6] |= 1 << (id & 63)
}

// TombstonesCompacted reports true: the bitset is the only tombstone
// representation. It and CompactTombstones stay only for the benchmark's
// aging driver, which calls them; ROADMAP ledger item (h) deletes both
// with that call.
func (t *Tree) TombstonesCompacted() bool { return true }

// CompactTombstones does nothing and returns 0 (see TombstonesCompacted).
func (t *Tree) CompactTombstones() int { return 0 }

// ForEachTombstone visits tombstoned base IDs in ascending order.
func (t *Tree) ForEachTombstone(fn func(InodeID)) {
	for wi, w := range t.dead {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			fn(InodeID(wi*64 + b))
		}
	}
}

// noteLazyLookup records one read-through to the base name index.
func (t *Tree) noteLazyLookup(miss bool) {
	t.lazyLookups++
	if miss {
		t.lazyMisses++
	}
}

// LazyStats returns the cumulative read-through lookup and miss counts.
func (t *Tree) LazyStats() (lookups, misses uint64) {
	return t.lazyLookups, t.lazyMisses
}
