package partition

import "dynmds/internal/namespace"

// LazyHybrid implements the Lazy Hybrid strategy (§3.1.3, Brandt et
// al. 2003): metadata is distributed by a hash of the full path (like
// FileHash), but each file record carries a dual-entry access control
// list holding the effective permissions of its whole path, so requests
// need no path traversal. The price: when a directory's permissions
// change — or a directory is renamed, which changes the path hash and
// hence the location of everything beneath it — the change must be
// (lazily) propagated to every affected file, amortised to one network
// trip per affected file on its next access.
type LazyHybrid struct {
	N int

	// updateEpoch increments on every directory permission/path change.
	updateEpoch uint64
	// dirEpoch holds, per directory, the update epoch at which its
	// permissions or path last changed; applied holds, per file, the
	// epoch whose effects have been folded into its dual-entry ACL. An
	// inode never changed or refreshed has no entry.
	dirEpoch, applied map[namespace.InodeID]uint64

	// Debt is the number of file records with un-propagated updates
	// outstanding; LH's viability depends on updates being applied
	// faster than they are created.
	Debt int
}

// NewLazyHybrid returns the strategy for an n-node cluster.
func NewLazyHybrid(n int) *LazyHybrid {
	return &LazyHybrid{N: n, dirEpoch: make(map[namespace.InodeID]uint64), applied: make(map[namespace.InodeID]uint64)}
}

// Authority implements Strategy: hash of the full path.
func (l *LazyHybrid) Authority(ino *namespace.Inode) int {
	return int(PathHash(ino) % uint64(l.N))
}

// AuthorityForName implements Strategy: hash of the would-be full path.
func (l *LazyHybrid) AuthorityForName(dir *namespace.Inode, name string) int {
	return FileHash{N: l.N}.AuthorityForName(dir, name)
}

// DirGranular implements Strategy: LH scatters individual inodes.
func (l *LazyHybrid) DirGranular() bool { return false }

// NeedsPathTraversal implements Strategy: the dual-entry ACL removes the
// need to traverse prefix directories on access.
func (l *LazyHybrid) NeedsPathTraversal() bool { return false }

// ClientComputable implements Strategy.
func (l *LazyHybrid) ClientComputable() bool { return true }

// NoteDirUpdate records a directory permission change or rename: every
// file nested beneath dir now has a stale dual-entry ACL (and, for a
// rename, a stale location). Returns the number of affected records.
func (l *LazyHybrid) NoteDirUpdate(dir *namespace.Inode) int {
	if !dir.IsDir() {
		return 0
	}
	l.updateEpoch++
	l.dirEpoch[dir.ID] = l.updateEpoch
	affected := dir.SubtreeInodes() - 1
	l.Debt += affected
	return affected
}

// Stale reports whether the inode's dual-entry ACL must be refreshed
// before the request can be served: some ancestor changed after the last
// propagation to this record.
func (l *LazyHybrid) Stale(ino *namespace.Inode) bool {
	applied := l.applied[ino.ID]
	if applied >= l.updateEpoch {
		return false // no directory has changed since
	}
	for c := ino.Parent(); c != nil; c = c.Parent() {
		if l.dirEpoch[c.ID] > applied {
			return true
		}
	}
	return false
}

// Apply folds all pending ancestor updates into the record (one lazy
// propagation, costing the caller one network trip). It reduces the
// outstanding debt.
func (l *LazyHybrid) Apply(ino *namespace.Inode) {
	if l.applied[ino.ID] < l.updateEpoch {
		l.applied[ino.ID] = l.updateEpoch
		if l.Debt > 0 {
			l.Debt--
		}
	}
}
