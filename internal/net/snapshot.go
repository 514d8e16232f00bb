package net

import (
	"fmt"

	"dynmds/internal/snap"
)

// Checkpoint codec. Called only at quiescence: no message may be in
// flight, so only counters, link high-water marks and busy horizons are
// state. The envelope pool is rebuilt empty (pool occupancy is
// unobservable).

func (l *Link) snap(c *snap.Codec) {
	if l.depth != 0 {
		panic("net: snapshot with nonzero link depth")
	}
	snap.I(c, &l.MaxDepth)
	snap.I(c, &l.BusyUntil)
}

// Snap walks the fabric; reading, a freshly built fabric with the same
// endpoint count. Panics unless fully drained.
func (f *Fabric) Snap(c *snap.Codec) {
	if n := f.InFlight(); n != 0 {
		panic(fmt.Sprintf("net: snapshot with %d messages in flight", n))
	}
	if n := f.LiveEnvelopes(); n != 0 {
		panic(fmt.Sprintf("net: snapshot with %d live envelopes", n))
	}
	c.Same(len(f.links), "net: links")
	for i := range f.links {
		f.links[i].snap(c)
	}
	for i := range f.class {
		snap.U(c, &f.class[i].Sent)
		snap.U(c, &f.class[i].Delivered)
		snap.U(c, &f.class[i].Dropped)
		snap.U(c, &f.class[i].Bytes)
	}
}
