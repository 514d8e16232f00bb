package sim

import "slices"

// poolBlockMax is the most objects one pool block holds.
const poolBlockMax = 64

// Pool lends objects of type T. Get hands back the object Put most
// recently (LIFO), as Put left it, and with none to hand back a zeroed
// object no earlier Get returned: those come from blocks that double
// from 1 to poolBlockMax objects and are never freed, so a backlog
// costs one malloc per block and a pool that stays small holds at most
// about twice what it ever lent. Resetting a recycled object is the
// owner's business. A pool never Put to never reuses an object. The
// zero Pool is ready to use.
type Pool[T any] struct {
	free  []*T
	block []T
	size  int // length of the last block made
	lent  int
}

// Get returns the most recently Put object, or a fresh zeroed one.
func (p *Pool[T]) Get() *T {
	p.lent++
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	if len(p.block) == 0 {
		p.size = min(max(2*p.size, 1), poolBlockMax)
		p.block = make([]T, p.size)
	}
	x := &p.block[0]
	p.block = p.block[1:]
	return x
}

// Put returns x for a later Get to hand out.
func (p *Pool[T]) Put(x *T) {
	p.lent--
	p.free = append(p.free, x)
}

// Reserve makes room for n more objects in the free list, so their
// Puts do not grow it.
func (p *Pool[T]) Reserve(n int) { p.free = slices.Grow(p.free, n) }

// Lent counts the objects Get handed out that Put has not taken back.
func (p *Pool[T]) Lent() int { return p.lent }
