package partition

import (
	"fmt"
	"sort"

	"dynmds/internal/namespace"
)

// SubtreeTable maps subtrees of the hierarchy to MDS nodes. Delegations
// may be nested: /usr can be assigned to one MDS while /usr/local is
// reassigned to another (§4.1). An inode's authority is the assignment
// on its nearest assigned ancestor (or itself). Authority lookups are
// memoized per inode and invalidated by bumping the table epoch on every
// delegation change.
type SubtreeTable struct {
	n      int
	epoch  uint64
	assign map[*namespace.Inode]int
	// byMDS mirrors assign for per-node iteration.
	byMDS []map[*namespace.Inode]bool
	// frozen suppresses memo writes in Authority so concurrent shards can
	// resolve authority lock-free during lookahead windows; memos are
	// refreshed wholesale at barriers via Memoize.
	frozen bool
}

// NewSubtreeTable creates a table for a cluster of n nodes with the
// entire hierarchy implicitly assigned to node 0 until delegations are
// made.
func NewSubtreeTable(n int) *SubtreeTable {
	if n < 1 {
		panic("partition: cluster size must be >= 1")
	}
	t := &SubtreeTable{
		n:      n,
		epoch:  1,
		assign: make(map[*namespace.Inode]int),
		byMDS:  make([]map[*namespace.Inode]bool, n),
	}
	for i := range t.byMDS {
		t.byMDS[i] = make(map[*namespace.Inode]bool)
	}
	return t
}

// N returns the cluster size.
func (t *SubtreeTable) N() int { return t.n }

// Epoch returns the current partition epoch; it changes whenever the
// partition changes.
func (t *SubtreeTable) Epoch() uint64 { return t.epoch }

// Delegate assigns authority for the subtree rooted at root to mds.
func (t *SubtreeTable) Delegate(root *namespace.Inode, mds int) error {
	if mds < 0 || mds >= t.n {
		return fmt.Errorf("partition: mds %d out of range [0,%d)", mds, t.n)
	}
	if !root.IsDir() {
		return fmt.Errorf("partition: delegation root %s is not a directory", root)
	}
	if old, ok := t.assign[root]; ok {
		delete(t.byMDS[old], root)
	}
	t.assign[root] = mds
	t.byMDS[mds][root] = true
	t.epoch++
	return nil
}

// Undelegate removes an explicit assignment so the subtree reverts to
// its parent's authority.
func (t *SubtreeTable) Undelegate(root *namespace.Inode) {
	if old, ok := t.assign[root]; ok {
		delete(t.byMDS[old], root)
		delete(t.assign, root)
		t.epoch++
	}
}

// Assigned returns the explicit assignment for root, if any.
func (t *SubtreeTable) Assigned(root *namespace.Inode) (int, bool) {
	mds, ok := t.assign[root]
	return mds, ok
}

// Authority returns the MDS responsible for the inode: the assignment of
// its nearest explicitly assigned ancestor-or-self, defaulting to 0.
func (t *SubtreeTable) Authority(ino *namespace.Inode) int {
	// Fast path: memoized for the current epoch.
	tags := TagsOf(ino)
	if tags.AuthEpoch == t.epoch {
		return int(tags.Auth)
	}
	if t.frozen {
		// Pure read-only resolution: walk upward, shortcut through any
		// ancestor's still-valid memo, write nothing. Used during
		// lookahead windows, where many shards read concurrently.
		for c := ino; c != nil; c = c.Parent() {
			ct := TagsOf(c)
			if ct.AuthEpoch == t.epoch {
				return int(ct.Auth)
			}
			if a, ok := t.assign[c]; ok {
				return a
			}
		}
		return 0
	}
	// Walk upward; remember the chain so every node visited gets
	// memoized with the resolved authority of its own nearest root.
	var chain [64]*namespace.Inode
	depth := 0
	auth := 0
	for c := ino; c != nil; c = c.Parent() {
		ct := TagsOf(c)
		if ct.AuthEpoch == t.epoch {
			auth = int(ct.Auth)
			break
		}
		if a, ok := t.assign[c]; ok {
			auth = a
			ct.AuthEpoch = t.epoch
			ct.Auth = int32(a)
			break
		}
		if depth < len(chain) {
			chain[depth] = c
			depth++
		}
	}
	for i := 0; i < depth; i++ {
		ct := TagsOf(chain[i])
		ct.AuthEpoch = t.epoch
		ct.Auth = int32(auth)
	}
	return auth
}

// SetFrozen switches Authority between memoizing (serial) and pure
// read-only (sharded window) resolution.
func (t *SubtreeTable) SetFrozen(on bool) { t.frozen = on }

// Memoize refreshes the authority memo of every inode under root for the
// current epoch, parents before children so each node resolves from its
// parent's fresh memo in O(1). Sharded execution calls this at setup and
// after any barrier that changes the partition epoch; between barriers
// the memos make frozen Authority lookups one tag read.
func (t *SubtreeTable) Memoize(root *namespace.Inode) {
	t.memoize(root, 0)
}

func (t *SubtreeTable) memoize(n *namespace.Inode, inherited int) {
	auth := inherited
	if a, ok := t.assign[n]; ok {
		auth = a
	}
	tags := TagsOf(n)
	tags.AuthEpoch = t.epoch
	tags.Auth = int32(auth)
	for i := 0; i < n.NumChildren(); i++ {
		t.memoize(n.Child(i), auth)
	}
}

// RootsOf returns mds's explicitly delegated subtree roots, sorted by
// inode ID for deterministic iteration.
func (t *SubtreeTable) RootsOf(mds int) []*namespace.Inode {
	roots := make([]*namespace.Inode, 0, len(t.byMDS[mds]))
	for r := range t.byMDS[mds] {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })
	return roots
}

// NumDelegations returns the number of explicit assignments — the
// partition's complexity, which the balancer tries to keep low.
func (t *SubtreeTable) NumDelegations() int { return len(t.assign) }

// CheckConsistency verifies the table's structural invariants: every
// assignment names an in-range node and a directory root, and the
// per-node mirror (byMDS) agrees exactly with the assignment map — so
// authority really is a partition, with every delegated root owned by
// exactly one node. The chaos checker runs this after every fuzzed run.
func (t *SubtreeTable) CheckConsistency() error {
	mirrored := 0
	for root, mds := range t.assign {
		if mds < 0 || mds >= t.n {
			return fmt.Errorf("partition: root %s assigned to out-of-range mds %d", root, mds)
		}
		if !root.IsDir() {
			return fmt.Errorf("partition: delegated root %s is not a directory", root)
		}
		if !t.byMDS[mds][root] {
			return fmt.Errorf("partition: root %s assigned to mds %d but missing from its mirror", root, mds)
		}
	}
	for mds, roots := range t.byMDS {
		for root := range roots {
			mirrored++
			if got, ok := t.assign[root]; !ok || got != mds {
				return fmt.Errorf("partition: mirror lists root %s under mds %d, assign says %d (present=%v)",
					root, mds, got, ok)
			}
		}
	}
	if mirrored != len(t.assign) {
		return fmt.Errorf("partition: %d mirror entries for %d assignments", mirrored, len(t.assign))
	}
	return nil
}

// InitialPartition seeds the table the way the paper's simulations do
// (§5.1): "hashing directories near the root of the hierarchy" — every
// directory at depth <= maxDepth is assigned by a hash of its path,
// giving a quickly generated, relatively even distribution.
func InitialPartition(t *SubtreeTable, tree *namespace.Tree, maxDepth int) {
	_ = t.Delegate(tree.Root, int(PathHash(tree.Root)%uint64(t.n)))
	tree.Walk(func(n *namespace.Inode) bool {
		d := n.Depth()
		if d > maxDepth {
			return false
		}
		if n.IsDir() && n != tree.Root {
			_ = t.Delegate(n, int(PathHash(n)%uint64(t.n)))
		}
		return true
	})
}

// StaticSubtree is the traditional NFS/AFS-style fixed partition
// (§3.1.1): the initial assignment never changes, so the system cannot
// adapt to workload evolution.
type StaticSubtree struct {
	Table *SubtreeTable
}

// NewStaticSubtree builds a static partition over the tree.
func NewStaticSubtree(n int, tree *namespace.Tree, partitionDepth int) *StaticSubtree {
	t := NewSubtreeTable(n)
	InitialPartition(t, tree, partitionDepth)
	return &StaticSubtree{Table: t}
}

// Name implements Strategy.
func (s *StaticSubtree) Name() string { return "StaticSubtree" }

// Authority implements Strategy.
func (s *StaticSubtree) Authority(ino *namespace.Inode) int {
	return s.Table.Authority(ino)
}

// AuthorityForName implements Strategy: a new entry belongs to its
// directory's subtree.
func (s *StaticSubtree) AuthorityForName(dir *namespace.Inode, name string) int {
	return s.Table.Authority(dir)
}

// DirGranular implements Strategy: subtree partitions store directories
// with embedded inodes.
func (s *StaticSubtree) DirGranular() bool { return true }

// NeedsPathTraversal implements Strategy.
func (s *StaticSubtree) NeedsPathTraversal() bool { return true }

// ClientComputable implements Strategy: clients discover the partition
// through replies and forwards.
func (s *StaticSubtree) ClientComputable() bool { return false }
