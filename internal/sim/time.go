// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue, FIFO service centres for modelling
// contended resources (CPU, disk, network), periodic tickers, and seeded
// random-variate helpers.
//
// The engine is single-threaded and fully deterministic: two runs with the
// same seed and the same schedule of events produce identical results.
// Parallelism in this repository happens one level up, across independent
// simulation configurations (see internal/harness).
package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// Time is a point in virtual time, measured in microseconds from the start
// of the simulation.
type Time int64

// Duration constants for virtual time arithmetic.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds returns t expressed in (floating point) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// maxParsedTime bounds what ParseTime accepts: up to 2^53 µs (285
// years) every count of any unit is a float64, so a parsed time prints
// (FormatTime) as text that parses back to itself.
const maxParsedTime = 1 << 53

// ParseTime parses "30s", "500ms", "250us", or a bare number (seconds),
// the form the plan and fault DSLs write times in. Negative, NaN and
// past-the-clock values are errors.
func ParseTime(s string) (Time, error) {
	unit, num := Second, s
	switch {
	case strings.HasSuffix(s, "us"):
		unit, num = Microsecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ms"):
		unit, num = Millisecond, s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		num = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || !(v >= 0 && v*float64(unit) <= maxParsedTime) {
		return 0, fmt.Errorf("bad time %q", s)
	}
	return Time(v * float64(unit)), nil
}

// FormatTime renders t in the largest s/ms/us unit that is exact;
// ParseTime inverts it.
func FormatTime(t Time) string {
	switch {
	case t%Second == 0:
		return strconv.FormatInt(int64(t/Second), 10) + "s"
	case t%Millisecond == 0:
		return strconv.FormatInt(int64(t/Millisecond), 10) + "ms"
	default:
		return strconv.FormatInt(int64(t), 10) + "us"
	}
}
