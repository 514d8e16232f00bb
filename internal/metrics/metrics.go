// Package metrics provides the measurement primitives used throughout
// the simulator: plain counters, exponentially decaying counters (the
// paper's popularity metric, §4.4: "a simple access counter whose value
// decays over time"), bucketed time series for the over-time figures,
// and small formatting helpers for paper-style output tables.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"dynmds/internal/sim"
	"dynmds/internal/snap"
)

// Decay is the state of an access counter whose value halves every
// half-life of virtual time: the (value, last-decay-time) pair and
// nothing else. The half-life is the caller's — a run has one for all
// of its popularity counters — so a struct that embeds a Decay by value
// pays 16 pointer-free bytes for it. Decay is applied lazily on access.
type Decay struct {
	value float64
	last  sim.Time
}

func (d *Decay) decayTo(now, halfLife sim.Time) {
	if now <= d.last {
		return
	}
	dt := float64(now - d.last)
	d.value *= math.Exp2(-dt / float64(halfLife))
	d.last = now
}

// Add decays to now and then adds x.
func (d *Decay) Add(now, halfLife sim.Time, x float64) {
	d.decayTo(now, halfLife)
	d.value += x
}

// Value returns the decayed value at now.
func (d *Decay) Value(now, halfLife sim.Time) float64 {
	d.decayTo(now, halfLife)
	return d.value
}

// Peek returns the decayed value at now without updating the counter's
// state. Peek(t) == Value(t) always; only the stored (value, last) pair
// differs afterwards, and Value's renormalised pair can move the bits
// of later reads, so callers that read with Peek keep doing so.
func (d *Decay) Peek(now, halfLife sim.Time) float64 {
	if now <= d.last {
		return d.value
	}
	dt := float64(now - d.last)
	return d.value * math.Exp2(-dt/float64(halfLife))
}

// Snap walks the raw (value, last-decay-time) pair for checkpoints.
func (d *Decay) Snap(sc *snap.Codec) {
	sc.F64(&d.value)
	snap.I(sc, &d.last)
}

// DecayCounter is a Decay that carries its own half-life, for the
// counters that stand alone (a node's op and miss rates).
type DecayCounter struct {
	HalfLife sim.Time
	d        Decay
}

// NewDecayCounter returns a counter with the given half-life.
func NewDecayCounter(halfLife sim.Time) *DecayCounter {
	if halfLife <= 0 {
		panic("metrics: half-life must be positive")
	}
	return &DecayCounter{HalfLife: halfLife}
}

// Add decays to now and then adds x.
func (c *DecayCounter) Add(now sim.Time, x float64) { c.d.Add(now, c.HalfLife, x) }

// Value returns the decayed value at now.
func (c *DecayCounter) Value(now sim.Time) float64 { return c.d.Value(now, c.HalfLife) }

// Snap walks the raw (value, last-decay-time) pair for checkpoints.
func (c *DecayCounter) Snap(sc *snap.Codec) { c.d.Snap(sc) }

// Series accumulates observations into fixed-width time buckets, for the
// "metric over time" figures (5, 6, 7).
type Series struct {
	Bucket sim.Time
	sums   []float64
	counts []int64
}

// NewSeries creates a series with the given bucket width.
func NewSeries(bucket sim.Time) *Series {
	if bucket <= 0 {
		panic("metrics: bucket width must be positive")
	}
	return &Series{Bucket: bucket}
}

func (s *Series) grow(i int) {
	for len(s.sums) <= i {
		s.sums = append(s.sums, 0)
		s.counts = append(s.counts, 0)
	}
}

// Observe adds x to the bucket containing now.
func (s *Series) Observe(now sim.Time, x float64) {
	i := int(now / s.Bucket)
	s.grow(i)
	s.sums[i] += x
	s.counts[i]++
}

// Len returns the number of buckets touched so far.
func (s *Series) Len() int { return len(s.sums) }

// Sum returns the accumulated sum in bucket i (0 if untouched).
func (s *Series) Sum(i int) float64 {
	if i < 0 || i >= len(s.sums) {
		return 0
	}
	return s.sums[i]
}

// Rate returns Sum(i) per second of bucket width.
func (s *Series) Rate(i int) float64 {
	return s.Sum(i) / s.Bucket.Seconds()
}

// BucketStart returns the virtual time at which bucket i begins.
func (s *Series) BucketStart(i int) sim.Time { return sim.Time(i) * s.Bucket }

// Snap walks the raw buckets for checkpoints.
func (s *Series) Snap(c *snap.Codec) {
	snap.Slice(c, &s.sums)
	if c.Reading() {
		s.counts = make([]int64, len(s.sums))
	}
	for i := range s.sums {
		c.F64(&s.sums[i])
		snap.I(c, &s.counts[i])
	}
}

// Welford accumulates mean/variance/min/max online.
type Welford struct {
	n        int64
	mean     float64
	min, max float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
}

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Min and Max return extrema (0 when empty).
func (w *Welford) Min() float64 { return w.min }
func (w *Welford) Max() float64 { return w.max }

// Table renders aligned columns for paper-style console output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v unless already strings.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
