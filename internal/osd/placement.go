// Package osd models the shared object-storage substrate beneath the
// MDS cluster. The paper's architecture stores all metadata on "a
// collection of OSDs" shared by the metadata servers (§2.1.3) — shared
// storage is what makes MDS failover cheap — and distributes objects
// with "a deterministic pseudo-random algorithm that guarantees a
// probabilistically balanced distribution of data throughout the
// system" (§2.1.1, the RUSH family).
//
// Placement here is rendezvous (highest-random-weight) hashing, which
// delivers the properties the paper requires and that tests verify:
// deterministic, probabilistically balanced, independent of any
// directory service, and minimal data movement when devices are added
// (expanding from n to n+1 devices relocates ≈ 1/(n+1) of objects, the
// information-theoretic minimum).
package osd

import (
	"fmt"
	"math"
	"slices"

	"dynmds/internal/namespace"
)

// ObjectID identifies a stored object; metadata objects are keyed by
// the directory inode ID they hold, log objects by a log-stream key.
type ObjectID uint64

// DirObject maps a directory inode to its object.
func DirObject(id namespace.InodeID) ObjectID { return ObjectID(id) }

// LogObject maps an MDS's bounded-log stream to an object key,
// disjoint from directory objects.
func LogObject(mds int) ObjectID { return ObjectID(1<<63 | uint64(mds)) }

// Placement deterministically maps objects to n equal devices.
type Placement struct {
	n int
}

// NewPlacement creates a placement over n devices.
func NewPlacement(n int) (*Placement, error) {
	if n < 1 {
		return nil, fmt.Errorf("osd: need at least one device")
	}
	return &Placement{n: n}, nil
}

// score computes the rendezvous score of obj on device dev: a
// deterministic uniform draw u mapped to 1 / -ln(u); larger is better.
func score(obj ObjectID, dev int) float64 {
	h := mix(uint64(obj), uint64(dev))
	// Map to (0,1); avoid exactly 0.
	u := (float64(h>>11) + 1) / float64(1<<53)
	return 1 / -math.Log(u)
}

// Primary returns the object's top-ranked device, the first of its
// Replicas.
func (p *Placement) Primary(obj ObjectID) int {
	best, bestScore := 0, -1.0
	for d := 0; d < p.n; d++ {
		if s := score(obj, d); s > bestScore {
			best, bestScore = d, s
		}
	}
	return best
}

// mix is a splitmix64-style avalanche over the (object, device) pair.
func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ (b + 0xbf58476d1ce4e5b9)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Replicas appends to dst the object's r top-ranked devices (primary
// first), clamped to the number of devices. Each device is inserted
// into the best r so far (whose scores are recomputed: r is 2-3), so a
// dst with room for them allocates nothing.
func (p *Placement) Replicas(dst []int, obj ObjectID, r int) []int {
	base, r := len(dst), min(r, p.n)
	for d := 0; d < p.n; d++ {
		i, s := len(dst), score(obj, d)
		for i > base && score(obj, dst[i-1]) < s {
			i--
		}
		if i-base == r {
			continue
		}
		if len(dst)-base == r {
			dst = dst[:len(dst)-1]
		}
		dst = slices.Insert(dst, i, d)
	}
	return dst
}
