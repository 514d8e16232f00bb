// Package a holds one case of each rule and exemption of the surface
// gate; TestSurfaceRules says which must be flagged.
package a

import (
	"errors"
	"strconv"
)

// T has a String method fmt calls and a method nothing calls.
type T struct{ N int }

func (t T) String() string { return strconv.Itoa(t.N) }

func (T) Dead() {}

// Runner's Stop is never called, so task.Stop is dead too.
type Runner interface {
	Run()
	Stop()
}

type task struct{ n *int }

func (t task) Run()  { *t.n++ }
func (t task) Stop() {}

// Config.Knob is read here and set only by a test. DefaultConfig sets
// Limit to one constant and nothing else sets it; it sets Retries too,
// but cmd/app sets another value; Size comes from its parameter.
type Config struct {
	Knob    int
	Size    int
	Limit   int
	Retries int
}

func DefaultConfig(size int) Config {
	return Config{Size: size, Limit: 8, Retries: 3}
}

func Start(c Config) int {
	n := c.Knob + c.Size + c.Limit + c.Retries
	var r Runner = task{&n}
	r.Run()
	return n
}

// Level is a flag.Value.
type Level int

func (l *Level) String() string { return strconv.Itoa(int(*l)) }

func (l *Level) Set(s string) error {
	n, err := strconv.Atoi(s)
	*l = Level(n)
	return err
}

// ErrBase is found through wrapped's Unwrap by errors.Is.
var ErrBase = errors.New("base")

type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped: " + w.err.Error() }
func (w wrapped) Unwrap() error { return w.err }

func Check(n int) error {
	if n < 0 {
		return wrapped{ErrBase}
	}
	return nil
}

// Outer.A and Inner.B are written only through o.A.B++.
type Inner struct{ B int }

type Outer struct{ A Inner }

func Count(o *Outer) int {
	o.A.B++
	return o.A.B
}

// Pair is written only by an unkeyed literal.
type Pair struct{ X, Y int }

func Sum() int {
	p := Pair{1, 2}
	return p.X + p.Y
}

// Counters: Bumps is only incremented, Walked is incremented and walked
// by & as a checkpoint does, and Seen is incremented and read once.
type Counters struct{ Bumps, Walked, Seen int }

func Tally(c *Counters, walk func(*int)) int {
	c.Bumps++
	c.Walked++
	c.Seen++
	walk(&c.Walked)
	return c.Seen
}
