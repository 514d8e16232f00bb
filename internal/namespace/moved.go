package namespace

// movedSet holds exactly the attached inodes that are not at their
// frozen (parent, name): every run-created inode and every base inode
// renamed away from its frozen place. Beside the frozen base's sorted
// name index it resolves every entry of the tree (see Tree.child), so
// no directory keeps an index of its own.
//
// It is an open-addressing table over inode pointers, at most half
// full, probed linearly. The key (parent ID, name) is read from the
// inode in the slot, so a slot costs 8 bytes and an entry's parent and
// name must not change while it is in the set: detach removes it first.
// Removal shifts the entries after the hole back, so no probe sequence
// ever crosses an empty slot it should not.
type movedSet struct {
	slots []*Inode
	n     int
}

// movedHash mixes a directory ID and an entry name: FNV-1a over the
// name, seeded with the ID, then a 64-bit finalizer so the low bits the
// table masks depend on every input bit.
func movedHash(dir InodeID, name string) uint64 {
	h := uint64(dir)*0x9e3779b97f4a7c15 ^ 0xcbf29ce484222325
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// home returns the slot where the probe for entry x starts.
func (s *movedSet) home(x *Inode) int {
	return int(movedHash(x.parent.ID, x.name) & uint64(len(s.slots)-1))
}

// lookup returns dir's entry named name, or nil.
func (s *movedSet) lookup(dir *Inode, name string) *Inode {
	if s.n == 0 {
		return nil
	}
	mask := len(s.slots) - 1
	for i := int(movedHash(dir.ID, name) & uint64(mask)); ; i = (i + 1) & mask {
		if x := s.slots[i]; x == nil || x.parent == dir && x.name == name {
			return x
		}
	}
}

// insert adds x, which is attached and not in the set.
func (s *movedSet) insert(x *Inode) {
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots, s.n = make([]*Inode, max(2*len(old), 16)), 0
		for _, y := range old {
			if y != nil {
				s.insert(y)
			}
		}
	}
	mask := len(s.slots) - 1
	i := s.home(x)
	for s.slots[i] != nil {
		i = (i + 1) & mask
	}
	s.slots[i] = x
	s.n++
}

// remove deletes x, which is attached at the key it was inserted
// under. An x the set does not hold is left alone; CheckInvariants
// reports the set that lost it.
func (s *movedSet) remove(x *Inode) {
	if s.n == 0 {
		return
	}
	mask := len(s.slots) - 1
	i := s.home(x)
	for s.slots[i] != x {
		if s.slots[i] == nil {
			return
		}
		i = (i + 1) & mask
	}
	// Backward shift: an entry after the hole moves into it unless its
	// home lies cyclically in (hole, its slot], where a probe for it
	// would never pass the hole.
	for j := (i + 1) & mask; s.slots[j] != nil; j = (j + 1) & mask {
		if (j-s.home(s.slots[j]))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = nil
	s.n--
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
