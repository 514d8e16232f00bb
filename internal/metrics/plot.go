package metrics

import (
	"fmt"
	"strings"

	"dynmds/internal/snap"
)

// sparkRunes are eight block heights for inline plots.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a compact unicode bar string, scaled to
// the series' own min..max range. Empty input yields an empty string.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	span := hi - lo
	for _, v := range values {
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(len(sparkRunes)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// SeriesSparkline renders bucket sums of a Series over [from, to).
func SeriesSparkline(s *Series, from, to int) string {
	if to > s.Len() {
		to = s.Len()
	}
	if from < 0 {
		from = 0
	}
	if from >= to {
		return ""
	}
	vals := make([]float64, 0, to-from)
	for i := from; i < to; i++ {
		vals = append(vals, s.Sum(i))
	}
	return Sparkline(vals)
}

// Histogram is a fixed-bucket frequency counter for latency-style
// distributions with a long tail: bucket boundaries double.
type Histogram struct {
	// bounds[i] is the inclusive upper bound of bucket i.
	bounds []float64
	counts []uint64
	total  uint64
}

// NewHistogram builds a doubling histogram from first up through
// first*2^(n-1); values above the last bound land in an overflow
// bucket.
func NewHistogram(first float64, n int) *Histogram {
	if n < 1 || first <= 0 {
		panic("metrics: invalid histogram shape")
	}
	h := &Histogram{counts: make([]uint64, n+1)}
	b := first
	for i := 0; i < n; i++ {
		h.bounds = append(h.bounds, b)
		b *= 2
	}
	return h
}

// Observe adds a value.
func (h *Histogram) Observe(v float64) {
	h.total++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.counts)-1]++
}

// Total returns the observation count.
func (h *Histogram) Total() uint64 { return h.total }

// Merge folds src's counts into h. Both histograms must share bucket
// bounds (same first bound and bucket count).
func (h *Histogram) Merge(src *Histogram) {
	if len(src.counts) != len(h.counts) ||
		(len(h.bounds) > 0 && src.bounds[0] != h.bounds[0]) {
		panic("metrics: merging histograms with different shapes")
	}
	for i := range src.counts {
		h.counts[i] += src.counts[i]
	}
	h.total += src.total
}

// Snap walks the bucket counts and total for checkpoints; the restoring
// histogram must have been built with the same shape.
func (h *Histogram) Snap(c *snap.Codec) {
	c.Same(len(h.counts), "metrics: histogram buckets")
	for i := range h.counts {
		snap.U(c, &h.counts[i])
	}
	snap.U(c, &h.total)
}

// Quantile returns an upper bound for quantile q in [0,1] (the bound of
// the bucket containing it), or 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1] * 2 // overflow bucket
		}
	}
	return h.bounds[len(h.bounds)-1] * 2
}

// String renders the histogram with proportional bars.
func (h *Histogram) String() string {
	var b strings.Builder
	var max uint64
	for _, c := range h.counts {
		if c > max {
			max = c
		}
	}
	for i, c := range h.counts {
		label := "overflow"
		if i < len(h.bounds) {
			label = fmt.Sprintf("<=%g", h.bounds[i])
		}
		bar := 0
		if max > 0 {
			bar = int(40 * c / max)
		}
		fmt.Fprintf(&b, "%-12s %-40s %d\n", label, strings.Repeat("#", bar), c)
	}
	return b.String()
}
