package metrics

import (
	"math/bits"

	"dynmds/internal/sim"
	"dynmds/internal/snap"
)

// latHist sub-bucket geometry: 16 linear sub-buckets per power-of-two
// octave bounds relative quantile error at 1/16 (6.25%) with a fixed
// 976-counter footprint covering the whole non-negative sim.Time range.
const (
	latSubBits  = 4
	latSubCount = 1 << latSubBits
	latBuckets  = (64-latSubBits)*latSubCount + latSubCount // 976
)

// LatHist is a bounded log2-bucket latency histogram: microsecond
// values land in one of 976 fixed counters (16 linear sub-buckets per
// octave), so p50/p99/p999 for tens of millions of observations cost
// 8 KB and zero allocations — no per-op samples. Beside the buckets it
// keeps the exact integer sum of what it was shown, so the mean is exact
// and does not depend on the order observations or lanes arrive in.
type LatHist struct {
	n       uint64
	sum     uint64 // microseconds
	buckets [latBuckets]uint64
}

// NewLatHist returns an empty histogram.
func NewLatHist() *LatHist { return &LatHist{} }

// latIndex maps a microsecond value to its bucket.
func latIndex(u uint64) int {
	if u < latSubCount {
		return int(u)
	}
	exp := uint(bits.Len64(u)) - latSubBits - 1 // u>>exp in [16, 32)
	return int(exp)<<latSubBits + int(u>>exp)
}

// latBound returns the largest value mapping to bucket idx.
func latBound(idx int) sim.Time {
	if idx < latSubCount {
		return sim.Time(idx)
	}
	exp := uint(idx>>latSubBits) - 1
	m := uint64(idx&(latSubCount-1)) | latSubCount
	return sim.Time((m+1)<<exp - 1)
}

// Observe records one latency. Negative values clamp to zero.
func (h *LatHist) Observe(d sim.Time) {
	if d < 0 {
		d = 0
	}
	h.buckets[latIndex(uint64(d))]++
	h.n++
	h.sum += uint64(d)
}

// N returns the observation count.
func (h *LatHist) N() uint64 { return h.n }

// Mean returns the mean observation in seconds, 0 when empty.
func (h *LatHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n) / float64(sim.Second)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// top of the bucket holding the ceil(q*N)-th smallest observation.
// Returns 0 when empty.
func (h *LatHist) Quantile(q float64) sim.Time {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			return latBound(i)
		}
	}
	return latBound(latBuckets - 1)
}

// Snap walks the sum and the non-empty buckets for checkpoints; the
// restoring histogram starts empty.
func (h *LatHist) Snap(c *snap.Codec) {
	snap.U(c, &h.sum)
	snap.Sparse(c, len(h.buckets), "metrics: latency bucket",
		func(i int) bool { return h.buckets[i] != 0 },
		func(i int) {
			count := h.buckets[i]
			snap.U(c, &count)
			h.SetBucket(i, count)
		})
}

// State visits the non-empty buckets in ascending order.
func (h *LatHist) State(fn func(idx int, count uint64)) {
	for i, c := range h.buckets {
		if c != 0 {
			fn(i, c)
		}
	}
}

// SetBucket sets one bucket's count, keeping N in step (the sum is not
// the buckets' to give: a histogram built this way answers quantiles).
func (h *LatHist) SetBucket(idx int, count uint64) {
	h.n += count - h.buckets[idx]
	h.buckets[idx] = count
}
