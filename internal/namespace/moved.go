package namespace

import "fmt"

// movedSet holds exactly the attached inodes that are not at their
// frozen (parent, name): every run-created inode and every base inode
// renamed away from its frozen place. Beside the frozen base's sorted
// name index it resolves every entry of the tree (see Tree.child), so
// no directory keeps an index of its own.
//
// It is an extendible hash table (Fagin et al., TODS 1979): dir, 2^depth
// bucket pointers, is indexed by the top depth bits of an entry's hash,
// and a bucket of local depth d is named by the 2^(depth-d) slots that
// share its top d bits. A bucket is a fixed array of inode pointers
// probed linearly from a home slot the hash's low bits pick. The key
// (parent ID, name) is read from the inode in the slot, so a slot costs
// 8 bytes and an entry's parent and name must not change while it is in
// the set: detach removes it first. A bucket about to pass 3/4 full
// splits in two on its next hash bit; that allocates the one new bucket
// and moves no other, and only a split at the global depth doubles dir,
// which holds pointers only. Removal shifts the entries after the hole
// back within the bucket, so no probe sequence ever crosses an empty
// slot it should not. Buckets never merge.
type movedSet struct {
	dir   []*movedBucket
	depth uint8
	n     int
}

// bucketSlots pointers and the header fill a 512-byte bucket; one
// splits before its entry count passes splitAt.
const bucketSlots, splitAt = 63, 47

type movedBucket struct {
	depth uint8 // local depth: the hash bits every entry's top agrees on
	n     uint32
	slots [bucketSlots]*Inode
}

// movedHash mixes a directory ID and an entry name: FNV-1a over the
// name, seeded with the ID, then a 64-bit finalizer so both the top bits
// the directory reads and the low bits a bucket reads depend on every
// input bit.
func movedHash(dir InodeID, name string) uint64 {
	h := uint64(dir)*0x9e3779b97f4a7c15 ^ 0xcbf29ce484222325
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// entryHash is movedHash of x's key.
func entryHash(x *Inode) uint64 { return movedHash(x.parent.ID, x.name) }

// bucket returns the bucket of hash h. A shift by 64 (depth 0) is 0.
func (s *movedSet) bucket(h uint64) *movedBucket { return s.dir[h>>(64-s.depth)] }

// probeStart returns the slot where the probe for hash h starts: the
// low 32 bits scaled onto the bucket, without a division.
func probeStart(h uint64) int { return int(uint64(uint32(h)) * bucketSlots >> 32) }

// probeNext returns the slot after i, wrapping.
func probeNext(i int) int {
	if i++; i == bucketSlots {
		return 0
	}
	return i
}

// lookup returns dir's entry named name, or nil.
func (s *movedSet) lookup(dir *Inode, name string) *Inode {
	if s.n == 0 {
		return nil
	}
	h := movedHash(dir.ID, name)
	b := s.bucket(h)
	for i := probeStart(h); ; i = probeNext(i) {
		if x := b.slots[i]; x == nil || x.parent == dir && x.name == name {
			return x
		}
	}
}

// insert adds x, which is attached and not in the set.
func (s *movedSet) insert(x *Inode) {
	h := entryHash(x)
	if s.dir == nil {
		s.dir = []*movedBucket{new(movedBucket)}
	}
	b := s.bucket(h)
	for b.n >= splitAt {
		s.split(h)
		b = s.bucket(h)
	}
	b.put(x, h)
	s.n++
}

// put stores x, of hash h, in b's first empty slot from its home.
func (b *movedBucket) put(x *Inode, h uint64) {
	i := probeStart(h)
	for b.slots[i] != nil {
		i = probeNext(i)
	}
	b.slots[i] = x
	b.n++
}

// split divides the bucket of hash h on the hash bit after its local
// depth: the entries with that bit set move to one new bucket, which
// takes the upper half of the directory slots naming the old one,
// doubling the directory first when the bucket is at the global depth.
func (s *movedSet) split(h uint64) {
	b := s.bucket(h)
	if b.depth == 64 {
		panic(fmt.Sprintf("namespace: %d moved entries share a 64-bit hash", b.n))
	}
	if b.depth == s.depth {
		dir := make([]*movedBucket, 2*len(s.dir))
		for i, x := range s.dir {
			dir[2*i], dir[2*i+1] = x, x
		}
		s.dir = dir
		s.depth++
	}
	b.depth++
	nb := &movedBucket{depth: b.depth}
	span := 1 << (s.depth - b.depth) // directory slots per half
	first := int(h>>(64-s.depth)) &^ (2*span - 1)
	for i := first + span; i < first+2*span; i++ {
		s.dir[i] = nb
	}
	old := b.slots
	b.slots, b.n = [bucketSlots]*Inode{}, 0
	for _, x := range old {
		if x == nil {
			continue
		}
		if xh := entryHash(x); xh>>(64-b.depth)&1 != 0 {
			nb.put(x, xh)
		} else {
			b.put(x, xh)
		}
	}
}

// remove deletes x, which is attached at the key it was inserted
// under. An x the set does not hold is left alone; CheckInvariants
// reports the set that lost it.
func (s *movedSet) remove(x *Inode) {
	if s.n == 0 {
		return
	}
	h := entryHash(x)
	b := s.bucket(h)
	i := probeStart(h)
	for b.slots[i] != x {
		if b.slots[i] == nil {
			return
		}
		i = probeNext(i)
	}
	// Backward shift: an entry after the hole moves into it unless its
	// home lies cyclically in (hole, its slot], where a probe for it
	// would never pass the hole.
	for j := probeNext(i); b.slots[j] != nil; j = probeNext(j) {
		if cyclic(j-probeStart(entryHash(b.slots[j]))) >= cyclic(j-i) {
			b.slots[i] = b.slots[j]
			i = j
		}
	}
	b.slots[i] = nil
	b.n--
	s.n--
}

// cyclic returns d, a difference of two slots, modulo bucketSlots.
func cyclic(d int) int {
	if d < 0 {
		return d + bucketSlots
	}
	return d
}

// check verifies the table's structure and calls fn once per entry:
// every bucket's local depth is at most the global depth, the directory
// slots naming a bucket are the 2^(depth-d) that share its top d bits,
// each entry's hash has those top bits and its probe finds it, each
// bucket counts its entries and stays under the split threshold, and
// the counts sum to n.
func (s *movedSet) check(fn func(*Inode) error) error {
	if len(s.dir) != 1<<s.depth && !(s.dir == nil && s.n == 0) {
		return fmt.Errorf("moved set directory holds %d slots at depth %d", len(s.dir), s.depth)
	}
	total := 0
	for i := 0; i < len(s.dir); {
		b := s.dir[i]
		if b.depth > s.depth {
			return fmt.Errorf("moved set bucket at slot %d has depth %d, past the directory's %d", i, b.depth, s.depth)
		}
		span := 1 << (s.depth - b.depth)
		if i%span != 0 {
			return fmt.Errorf("moved set bucket of depth %d first named at slot %d", b.depth, i)
		}
		for j := i; j < i+span; j++ {
			if s.dir[j] != b {
				return fmt.Errorf("moved set slots %d and %d share top bits but name different buckets", i, j)
			}
		}
		n := 0
		for _, x := range b.slots {
			if x == nil {
				continue
			}
			n++
			if err := fn(x); err != nil {
				return err
			}
			if x.parent == nil {
				continue // fn reports a detached entry
			}
			h := entryHash(x)
			if b.depth > 0 && int(h>>(64-b.depth)) != i/span {
				return fmt.Errorf("moved set holds %s in a bucket its top hash bits do not name", x)
			}
			if s.lookup(x.parent, x.name) != x {
				return fmt.Errorf("moved set probe does not find %s", x)
			}
		}
		if n != int(b.n) || n > splitAt {
			return fmt.Errorf("moved set bucket at slot %d counts %d entries, holds %d", i, b.n, n)
		}
		total += n
		i += span
	}
	if total != s.n {
		return fmt.Errorf("moved set counts %d entries, its buckets hold %d", s.n, total)
	}
	return nil
}

// displaced reports whether attached inode n is away from its frozen
// (parent, name), which every run-created inode is: the inodes the
// moved set must hold.
func (t *Tree) displaced(n *Inode) bool {
	if !t.base.contains(n.ID) {
		return true
	}
	fn := t.base.node(n.ID)
	return n.parent.ID != fn.parent || n.name != fn.name
}

// child resolves directory dir's entry name without counting the
// lookup: the moved set first, if dir was ever mutated (nothing has
// moved into a directory that was not), then the frozen base's sorted
// segment, whose inode counts only while it is still at that frozen
// place and listed there — an unlinked or renamed-away base entry
// falls through.
func (t *Tree) child(dir *Inode, name string) *Inode {
	if dir.dir.mutated {
		if c := t.moved.lookup(dir, name); c != nil {
			return c
		}
	}
	if !t.base.contains(dir.ID) {
		return nil
	}
	id, ok := t.base.lookup(dir.ID, name)
	if !ok {
		return nil
	}
	if c := t.node(id); c.parent == dir && c.name == name && c.attached() {
		return c
	}
	return nil
}
