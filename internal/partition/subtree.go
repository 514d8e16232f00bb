package partition

import (
	"fmt"
	"math"
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
	n int
	// epoch is what an inode's memo (Tags.AuthEpoch) is checked
	// against. It starts at 1, so a never-written memo is stale, and it
	// never wraps: a wrapped epoch would revive every stale memo.
	epoch  uint32
	assign map[*namespace.Inode]int
}

// NewSubtreeTable creates a table for a cluster of n nodes with the
// entire hierarchy implicitly assigned to node 0 until delegations are
// made.
func NewSubtreeTable(n int) *SubtreeTable {
	if n < 1 || n > MaxNodes {
		panic(fmt.Sprintf("partition: cluster size %d outside [1, %d]", n, MaxNodes))
	}
	return &SubtreeTable{n: n, epoch: 1, assign: make(map[*namespace.Inode]int)}
}

// N returns the cluster size.
func (t *SubtreeTable) N() int { return t.n }

// Delegate assigns authority for the subtree rooted at root to mds.
func (t *SubtreeTable) Delegate(root *namespace.Inode, mds int) error {
	if mds < 0 || mds >= t.n {
		return fmt.Errorf("partition: mds %d out of range [0,%d)", mds, t.n)
	}
	if !root.IsDir() {
		return fmt.Errorf("partition: delegation root %s is not a directory", root)
	}
	if t.epoch == math.MaxUint32 {
		return fmt.Errorf("partition: delegation epoch %d would wrap", t.epoch)
	}
	t.assign[root] = mds
	t.epoch++
	return nil
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
	if ino.Tags.AuthEpoch == t.epoch {
		return int(ino.Tags.Auth)
	}
	// Walk upward; remember the chain so every node visited gets
	// memoized with the resolved authority of its own nearest root.
	var chain [64]*namespace.Inode
	depth := 0
	auth := 0
	for c := ino; c != nil; c = c.Parent() {
		ct := &c.Tags
		if ct.AuthEpoch == t.epoch {
			auth = int(ct.Auth)
			break
		}
		if a, ok := t.assign[c]; ok {
			auth = a
			ct.AuthEpoch = t.epoch
			ct.Auth = uint16(a)
			break
		}
		if depth < len(chain) {
			chain[depth] = c
			depth++
		}
	}
	for i := 0; i < depth; i++ {
		ct := &chain[i].Tags
		ct.AuthEpoch = t.epoch
		ct.Auth = uint16(auth)
	}
	return auth
}

// RootsOf returns mds's explicitly delegated subtree roots, sorted by
// inode ID for deterministic iteration. It scans every delegation (twice,
// to size the result): its callers run at most once per balance round,
// failover or checkpoint.
func (t *SubtreeTable) RootsOf(mds int) []*namespace.Inode {
	n := 0
	for _, m := range t.assign {
		if m == mds {
			n++
		}
	}
	roots := make([]*namespace.Inode, 0, n)
	for r, m := range t.assign {
		if m == mds {
			roots = append(roots, r)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })
	return roots
}

// NumDelegations returns the number of explicit assignments — the
// partition's complexity, which the balancer tries to keep low.
func (t *SubtreeTable) NumDelegations() int { return len(t.assign) }

// CheckConsistency verifies the table's structural invariants: every
// assignment names an in-range node and a directory root. The chaos
// checker runs this after every fuzzed run.
func (t *SubtreeTable) CheckConsistency() error {
	for root, mds := range t.assign {
		if mds < 0 || mds >= t.n {
			return fmt.Errorf("partition: root %s assigned to out-of-range mds %d", root, mds)
		}
		if !root.IsDir() {
			return fmt.Errorf("partition: delegated root %s is not a directory", root)
		}
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

// Subtree is the subtree partition (§3.1.1, §4): authority follows the
// delegation table. Both subtree strategies are this type. The static
// comparator "does not employ load balancing to adjust the initial
// partition" (§5), so its table never changes and HashDirAt stays 0;
// the dynamic one has its table moved by core.Balancer and failover,
// and hashes oversized directories (§4.3).
type Subtree struct {
	Table *SubtreeTable

	// HashDirAt, when > 0, hashes the entries of any directory with at
	// least this many across the cluster (MaybeHashDir). Zero never
	// hashes a directory.
	HashDirAt int

	// Scattered stores inodes one by one instead of embedded in their
	// directories (§4.5): the same partition, per-inode I/O — the
	// embedded-inode ablation.
	Scattered bool
}

// NewStaticSubtree builds a subtree partition over the tree with the
// paper's initial assignment (InitialPartition).
func NewStaticSubtree(n int, tree *namespace.Tree, partitionDepth int) *Subtree {
	t := NewSubtreeTable(n)
	InitialPartition(t, tree, partitionDepth)
	return &Subtree{Table: t}
}

// Authority implements Strategy. Entries of a hashed directory are
// spread by (directory inode number, entry name); everything else
// follows the subtree table.
func (s *Subtree) Authority(ino *namespace.Inode) int {
	if p := ino.Parent(); p != nil && p.Tags.Has(namespace.HashedDir) {
		return int(NameHash(p.ID, ino.Name()) % uint64(s.Table.N()))
	}
	return s.Table.Authority(ino)
}

// AuthorityForName implements Strategy: a new entry belongs to its
// directory's subtree, or to its name's hash in a hashed directory.
func (s *Subtree) AuthorityForName(dir *namespace.Inode, name string) int {
	if dir.Tags.Has(namespace.HashedDir) {
		return int(NameHash(dir.ID, name) % uint64(s.Table.N()))
	}
	return s.Table.Authority(dir)
}

// DirGranular implements Strategy: a subtree partition stores
// directories with embedded inodes unless Scattered.
func (s *Subtree) DirGranular() bool { return !s.Scattered }

// NeedsPathTraversal implements Strategy.
func (s *Subtree) NeedsPathTraversal() bool { return true }

// ClientComputable implements Strategy: clients learn the partition
// from replies and forwards — the ignorance traffic control exploits.
func (s *Subtree) ClientComputable() bool { return false }

// MaybeHashDir applies the directory-hashing policy to dir: hash it if
// it has grown past HashDirAt, consolidate it if it has shrunk below
// half of that (hysteresis). Reports whether the state changed.
func (s *Subtree) MaybeHashDir(dir *namespace.Inode) bool {
	if s.HashDirAt <= 0 || !dir.IsDir() {
		return false
	}
	tags := &dir.Tags
	switch hashed := tags.Has(namespace.HashedDir); {
	case !hashed && dir.NumChildren() >= s.HashDirAt:
		tags.Set(namespace.HashedDir, true)
		return true
	case hashed && dir.NumChildren() < s.HashDirAt/2:
		tags.Set(namespace.HashedDir, false)
		return true
	}
	return false
}
