package sim

// slabMax is the most objects one slab block holds.
const slabMax = 64

// Slab hands out fresh zeroed objects of type T from blocks that double
// from 1 to slabMax objects, so a pool that refills from it costs one
// malloc per block instead of one per object, and a pool that stays
// small holds at most about twice what it ever used. A slab never frees
// or reuses an object: recycling is the free list's job above it, and a
// block stays alive while any object in it is reachable. The zero Slab
// is ready to use.
type Slab[T any] struct {
	block []T
	size  int // length of the last block made
}

// New returns a zeroed object no earlier call has returned.
func (s *Slab[T]) New() *T {
	if len(s.block) == 0 {
		s.size = min(max(2*s.size, 1), slabMax)
		s.block = make([]T, s.size)
	}
	p := &s.block[0]
	s.block = s.block[1:]
	return p
}
