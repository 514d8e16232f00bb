// Package osd models the shared object-storage substrate beneath the
// MDS cluster. The paper's architecture stores all metadata on "a
// collection of OSDs" shared by the metadata servers (§2.1.3) — shared
// storage is what makes MDS failover cheap — and distributes objects
// with "a deterministic pseudo-random algorithm that guarantees a
// probabilistically balanced distribution of data throughout the
// system" (§2.1.1, the RUSH family).
//
// Placement here is weighted rendezvous (highest-random-weight)
// hashing, which delivers the properties the paper requires and that
// tests verify: deterministic, probabilistically balanced, independent
// of any directory service, and minimal data movement when devices are
// added (expanding from n to n+1 devices relocates ≈ 1/(n+1) of
// objects, the information-theoretic minimum).
package osd

import (
	"fmt"
	"math"

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

// Placement deterministically maps objects to devices. Devices carry
// weights so heterogeneous capacities can be expressed.
type Placement struct {
	weights []float64
}

// NewPlacement creates a placement over n equally weighted devices.
func NewPlacement(n int) (*Placement, error) {
	if n < 1 {
		return nil, fmt.Errorf("osd: need at least one device")
	}
	p := &Placement{}
	for i := 0; i < n; i++ {
		p.weights = append(p.weights, 1)
	}
	return p, nil
}

// AddDevice grows the cluster by one device of the given weight,
// returning its index. Existing objects move only onto the new device
// (minimal movement).
func (p *Placement) AddDevice(weight float64) int {
	if weight <= 0 {
		weight = 1
	}
	p.weights = append(p.weights, weight)
	return len(p.weights) - 1
}

// SetWeight adjusts a device's weight (0 drains it).
func (p *Placement) SetWeight(dev int, weight float64) error {
	if dev < 0 || dev >= len(p.weights) {
		return fmt.Errorf("osd: device %d out of range", dev)
	}
	if weight < 0 {
		weight = 0
	}
	p.weights[dev] = weight
	return nil
}

// score computes the rendezvous score of obj on device dev: a
// deterministic uniform draw shaped by the device weight
// (w / -ln(u) — larger is better; weighted rendezvous hashing).
func (p *Placement) score(obj ObjectID, dev int) float64 {
	if p.weights[dev] <= 0 {
		return -1
	}
	h := mix(uint64(obj), uint64(dev))
	// Map to (0,1); avoid exactly 0.
	u := (float64(h>>11) + 1) / float64(1<<53)
	return p.weights[dev] / -math.Log(u)
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

// Primary returns the object's primary device.
func (p *Placement) Primary(obj ObjectID) int {
	best, bestScore := 0, -1.0
	for d := range p.weights {
		if s := p.score(obj, d); s > bestScore {
			best, bestScore = d, s
		}
	}
	return best
}

// Replicas returns the object's r top-ranked devices (primary first),
// clamped to the number of devices with positive weight.
func (p *Placement) Replicas(obj ObjectID, r int) []int {
	type ds struct {
		dev   int
		score float64
	}
	var alive []ds
	for d := range p.weights {
		if s := p.score(obj, d); s >= 0 {
			alive = append(alive, ds{d, s})
		}
	}
	if r > len(alive) {
		r = len(alive)
	}
	// Partial selection sort: r is small (2-3).
	out := make([]int, 0, r)
	for k := 0; k < r; k++ {
		best := k
		for i := k + 1; i < len(alive); i++ {
			if alive[i].score > alive[best].score {
				best = i
			}
		}
		alive[k], alive[best] = alive[best], alive[k]
		out = append(out, alive[k].dev)
	}
	return out
}
