package lease

import "dynmds/internal/snap"

// Checkpoint codec. The registry and slab are sized deterministically
// by the cluster from config and the pristine namespace, so only the
// sparse nonzero content is serialized; sizes are cross-checked on
// restore so a snapshot from a different config fails loudly.

// Snap walks the plane's mutable state; reading, a freshly built plane
// with the same config and namespace.
func (p *Plane) Snap(c *snap.Codec) {
	snap.U(c, &p.Recalled)
	reg := p.Reg
	c.Same(len(reg.gen), "lease: registry size")
	snap.Sparse(c, len(reg.gen), "lease: registry slot",
		func(i int) bool { return reg.gen[i] != 0 || reg.grants[i] != 0 },
		func(i int) {
			snap.U(c, &reg.gen[i])
			snap.U(c, &reg.grants[i])
		})
	tab := p.Tab
	c.Same(len(tab.key), "lease: client slab size")
	snap.Sparse(c, len(tab.key), "lease: client slab slot",
		func(i int) bool { return tab.key[i] != 0 },
		func(i int) {
			snap.U(c, &tab.key[i])
			snap.U(c, &tab.meta[i])
		})
}
