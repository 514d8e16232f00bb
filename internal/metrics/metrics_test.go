package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dynmds/internal/sim"
)

func TestDecayCounterHalfLife(t *testing.T) {
	c := NewDecayCounter(sim.Second)
	c.Add(0, 100)
	if got := c.Value(sim.Second); math.Abs(got-50) > 0.001 {
		t.Fatalf("after one half-life: %v, want 50", got)
	}
	if got := c.Value(2 * sim.Second); math.Abs(got-25) > 0.001 {
		t.Fatalf("after two half-lives: %v, want 25", got)
	}
}

func TestDecayCounterAccumulates(t *testing.T) {
	c := NewDecayCounter(sim.Second)
	c.Add(0, 10)
	c.Add(sim.Second, 10) // old 10 decayed to 5, +10 = 15
	if got := c.Value(sim.Second); math.Abs(got-15) > 0.001 {
		t.Fatalf("value = %v, want 15", got)
	}
}

func TestDecayCounterMonotoneClock(t *testing.T) {
	c := NewDecayCounter(sim.Second)
	c.Add(10*sim.Second, 7)
	// Reading at an earlier time must not inflate the value.
	if got := c.Value(5 * sim.Second); math.Abs(got-7) > 0.001 {
		t.Fatalf("stale read = %v, want 7", got)
	}
}

func TestDecayCounterReset(t *testing.T) {
	c := NewDecayCounter(sim.Second)
	c.Add(0, 42)
	c.Reset(sim.Second)
	if got := c.Value(2 * sim.Second); got != 0 {
		t.Fatalf("after reset = %v", got)
	}
}

// Property: decay never makes a nonnegative counter negative, and decay
// over t1+t2 equals decay over t1 then t2.
func TestDecayComposition(t *testing.T) {
	f := func(a, b uint16, add uint16) bool {
		c1 := NewDecayCounter(sim.Second)
		c1.Add(0, float64(add))
		v1 := c1.Value(sim.Time(a) + sim.Time(b))
		c2 := NewDecayCounter(sim.Second)
		c2.Add(0, float64(add))
		_ = c2.Value(sim.Time(a))
		v2 := c2.Value(sim.Time(a) + sim.Time(b))
		return v1 >= 0 && math.Abs(v1-v2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// oldDecayCounter is the pointer-and-half-life counter Decay replaced,
// kept verbatim as the oracle of TestDecayMatchesOldCounter.
type oldDecayCounter struct {
	HalfLife sim.Time
	value    float64
	last     sim.Time
}

func (c *oldDecayCounter) decayTo(now sim.Time) {
	if now <= c.last {
		return
	}
	dt := float64(now - c.last)
	c.value *= math.Exp2(-dt / float64(c.HalfLife))
	c.last = now
}

func (c *oldDecayCounter) Add(now sim.Time, x float64) {
	c.decayTo(now)
	c.value += x
}

func (c *oldDecayCounter) Value(now sim.Time) float64 {
	c.decayTo(now)
	return c.value
}

func (c *oldDecayCounter) Peek(now sim.Time) float64 {
	if now <= c.last {
		return c.value
	}
	dt := float64(now - c.last)
	return c.value * math.Exp2(-dt/float64(c.HalfLife))
}

// TestDecayMatchesOldCounter drives a Decay and the counter it replaced
// with the same random sequence of adds, stored reads and peeks at
// times that mostly advance and sometimes step back, and compares every
// result and the stored pair bit for bit: digests and checkpoints
// depend on the arithmetic, not just on its value to a tolerance.
func TestDecayMatchesOldCounter(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := sim.NewRNG(seed)
		halfLife := sim.Time(1+r.Pick(5000)) * sim.Millisecond
		old := &oldDecayCounter{HalfLife: halfLife}
		var d Decay
		now := sim.Time(0)
		for i := 0; i < 5000; i++ {
			if r.Pick(10) == 0 {
				now -= sim.Time(r.Pick(1000)) * sim.Microsecond
			} else {
				now += sim.Time(r.Float64() * 3 * float64(halfLife))
			}
			var got, want float64
			switch r.Pick(3) {
			case 0:
				x := float64(r.Pick(4)) * r.Float64()
				old.Add(now, x)
				d.Add(now, halfLife, x)
			case 1:
				got, want = d.Value(now, halfLife), old.Value(now)
			case 2:
				got, want = d.Peek(now, halfLife), old.Peek(now)
			}
			if math.Float64bits(got) != math.Float64bits(want) ||
				math.Float64bits(d.value) != math.Float64bits(old.value) || d.last != old.last {
				t.Fatalf("seed %d step %d at %v: Decay (%v; %v @%v) != old counter (%v; %v @%v)",
					seed, i, now, got, d.value, d.last, want, old.value, old.last)
			}
		}
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(sim.Second)
	s.Observe(0, 1)
	s.Observe(500*sim.Millisecond, 2)
	s.Observe(1500*sim.Millisecond, 10)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Sum(0) != 3 || s.Sum(1) != 10 {
		t.Fatalf("sums = %v %v", s.Sum(0), s.Sum(1))
	}
	if s.Count(0) != 2 {
		t.Fatalf("count = %d", s.Count(0))
	}
	if s.Mean(0) != 1.5 {
		t.Fatalf("mean = %v", s.Mean(0))
	}
	if s.Rate(1) != 10 {
		t.Fatalf("rate = %v", s.Rate(1))
	}
	if s.Sum(99) != 0 || s.Mean(99) != 0 || s.Count(-1) != 0 {
		t.Fatal("out-of-range access not zero")
	}
	if s.BucketStart(3) != 3*sim.Second {
		t.Fatalf("bucket start = %v", s.BucketStart(3))
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("n = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-9 {
		t.Fatalf("mean = %v", w.Mean())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
	// Sample stddev of that set is sqrt(32/7).
	if math.Abs(w.Stddev()-math.Sqrt(32.0/7.0)) > 1e-9 {
		t.Fatalf("stddev = %v", w.Stddev())
	}
	var empty Welford
	if empty.Stddev() != 0 || empty.Mean() != 0 {
		t.Fatal("empty welford not zero")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("mds", "ops/sec")
	tb.AddRow(5, 3210.5)
	tb.AddRow("10", 2800.0)
	out := tb.String()
	if !strings.Contains(out, "mds") || !strings.Contains(out, "3210.50") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines", len(lines))
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]float64{"b": 1, "a": 2, "c": 3}
	k := SortedKeys(m)
	if k[0] != "a" || k[1] != "b" || k[2] != "c" {
		t.Fatalf("keys = %v", k)
	}
}
