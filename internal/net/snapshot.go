package net

import (
	"fmt"

	"dynmds/internal/snap"
)

// Checkpoint codec. Called only at quiescence: no message may be in
// flight, so only counters, link high-water marks, busy horizons, and
// mailbox sequence numbers are state. Envelope pools are rebuilt empty
// (pool occupancy is unobservable); mailbox seq is serialized because
// it never resets and orders equal-time cross-shard deliveries.

func (l *Link) snap(c *snap.Codec) {
	if l.depth != 0 {
		panic("net: snapshot with nonzero link depth")
	}
	snap.U(c, &l.Stats.Messages)
	snap.U(c, &l.Stats.Bytes)
	snap.I(c, &l.Stats.MaxDepth)
	snap.I(c, &l.BusyUntil)
}

func snapLane(c *snap.Codec, lane *[NumClasses]ClassStats) {
	for i := range lane {
		snap.U(c, &lane[i].Sent)
		snap.U(c, &lane[i].Delivered)
		snap.U(c, &lane[i].Dropped)
		snap.U(c, &lane[i].Bytes)
	}
}

// Snap walks the fabric; reading, a freshly built fabric with the same
// endpoint count and sharding. Panics unless fully drained.
func (f *Fabric) Snap(c *snap.Codec) {
	if n := f.InFlight(); n != 0 {
		panic(fmt.Sprintf("net: snapshot with %d messages in flight", n))
	}
	if n := f.LiveEnvelopes(); n != 0 {
		panic(fmt.Sprintf("net: snapshot with %d live envelopes", n))
	}
	if n := f.PendingMail(); n != 0 {
		panic(fmt.Sprintf("net: snapshot with %d queued cross-shard deliveries", n))
	}
	c.Same(len(f.links), "net: links")
	for i := range f.links {
		f.links[i].snap(c)
	}
	snapLane(c, &f.class)
	k := -1
	if f.sh != nil {
		k = f.sh.k
	}
	c.Same(k, "net: fabric shards")
	for i := 0; i < k; i++ {
		snapLane(c, &f.sh.class[i])
		for j := range f.sh.edgeRows[i] {
			f.sh.edgeRows[i][j].snap(c)
		}
		for j := range f.sh.mail[i] {
			snap.U(c, &f.sh.mail[i][j].seq)
		}
	}
}
