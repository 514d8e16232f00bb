package metrics

import "strings"

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
