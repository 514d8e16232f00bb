package sim

import (
	"slices"
	"strings"
	"testing"
)

// wheelRec records firing order and times for wheel tests.
type wheelRec struct {
	w     *Wheel
	eng   *Engine
	ids   []int32
	times []Time
}

// Pending counts armed timers (O(levels × slots × entries)).
func (w *Wheel) Pending() int {
	n := 0
	for l := 0; l < wheelLevels; l++ {
		for s := 0; s < wheelSlots; s++ {
			for link := w.head[l][s]; link != 0; link = w.next[link-1] {
				n++
			}
		}
	}
	return n
}

func (r *wheelRec) fire(id int32) {
	r.ids = append(r.ids, id)
	r.times = append(r.times, r.eng.Now())
}

// TestWheelFiresOnTime schedules timers across all three levels, up to
// the range's last tick, and checks each fires at its deadline rounded
// up to a tick boundary, regardless of how many cascades it crossed.
func TestWheelFiresOnTime(t *testing.T) {
	eng := NewEngine()
	rec := &wheelRec{eng: eng}
	w := NewWheel(eng, Millisecond, 16, rec.fire)
	rec.w = w

	delays := []Time{
		1 * Millisecond,   // level 0
		255 * Millisecond, // level 0 edge
		256 * Millisecond, // level 1 first slot
		300 * Millisecond, // level 1
		65536 * Millisecond,
		65600 * Millisecond,            // level 2
		(wheelRange - 1) * Millisecond, // the range's last tick
	}
	w.Start()
	for i, d := range delays {
		w.Schedule(int32(i), d)
	}
	eng.RunUntil((wheelRange + 16) * Millisecond)
	w.Stop()
	eng.Run()

	if len(rec.ids) != len(delays) {
		t.Fatalf("fired %d timers, want %d", len(rec.ids), len(delays))
	}
	got := make(map[int32]Time)
	for i, id := range rec.ids {
		got[id] = rec.times[i]
	}
	for i, d := range delays {
		want := d // already tick-aligned
		if got[int32(i)] != want {
			t.Errorf("timer %d fired at %v, want %v", i, got[int32(i)], want)
		}
	}
	if w.Pending() != 0 {
		t.Fatalf("pending = %d after drain", w.Pending())
	}
}

// TestWheelHorizon checks that a deadline one tick past what the levels
// cover (the wheel's own horizon) is refused, not wrapped onto an
// earlier slot.
func TestWheelHorizon(t *testing.T) {
	eng := NewEngine()
	w := NewWheel(eng, Millisecond, 1, func(int32) {})
	w.Start()
	defer func() {
		if r := recover(); r != "sim: wheel range exceeded" {
			t.Fatalf("recovered %v, want the horizon panic", r)
		}
	}()
	w.Schedule(0, wheelRange*Millisecond)
}

// TestWheelSubTickRoundsUp checks that deadlines between tick
// boundaries round up, with a floor of one tick.
func TestWheelSubTickRoundsUp(t *testing.T) {
	eng := NewEngine()
	rec := &wheelRec{eng: eng}
	w := NewWheel(eng, Millisecond, 4, rec.fire)
	w.Start()
	w.Schedule(0, 0)                // floor: next tick
	w.Schedule(1, 1500*Microsecond) // rounds to 2ms
	eng.RunUntil(10 * Millisecond)
	w.Stop()
	eng.Run()
	if len(rec.ids) != 2 {
		t.Fatalf("fired %d", len(rec.ids))
	}
	if rec.times[0] != Millisecond || rec.ids[0] != 0 {
		t.Errorf("timer 0: %v (id %d), want 1ms", rec.times[0], rec.ids[0])
	}
	if rec.times[1] != 2*Millisecond || rec.ids[1] != 1 {
		t.Errorf("timer 1: %v (id %d), want 2ms", rec.times[1], rec.ids[1])
	}
}

// TestWheelSlotOrderDeterministic checks FIFO dispatch within one
// deadline tick: timers due the same tick fire in scheduling order,
// including timers that reached the slot through a cascade from a
// higher level (scheduled earlier => cascaded in order => still FIFO).
func TestWheelSlotOrderDeterministic(t *testing.T) {
	eng := NewEngine()
	rec := &wheelRec{eng: eng}
	w := NewWheel(eng, Millisecond, 64, rec.fire)
	w.Start()

	// ids 0..31 all due at tick 300 (level 1, one cascade), scheduled
	// in id order; ids 32..35 due at tick 300 scheduled later but
	// directly into level 1 as well.
	for i := int32(0); i < 36; i++ {
		w.Schedule(i, 300*Millisecond)
	}
	eng.RunUntil(400 * Millisecond)
	w.Stop()
	eng.Run()

	if len(rec.ids) != 36 {
		t.Fatalf("fired %d, want 36", len(rec.ids))
	}
	for i, id := range rec.ids {
		if id != int32(i) {
			t.Fatalf("dispatch order %v: position %d got id %d", rec.ids[:8], i, id)
		}
		if rec.times[i] != 300*Millisecond {
			t.Fatalf("timer %d fired at %v", id, rec.times[i])
		}
	}

	// Determinism: a second identical schedule fires identically.
	eng2 := NewEngine()
	rec2 := &wheelRec{eng: eng2}
	w2 := NewWheel(eng2, Millisecond, 64, rec2.fire)
	w2.Start()
	for i := int32(0); i < 36; i++ {
		w2.Schedule(i, 300*Millisecond)
	}
	eng2.RunUntil(400 * Millisecond)
	w2.Stop()
	eng2.Run()
	if len(rec2.ids) != len(rec.ids) {
		t.Fatalf("replay fired %d, want %d", len(rec2.ids), len(rec.ids))
	}
	for i := range rec.ids {
		if rec.ids[i] != rec2.ids[i] || rec.times[i] != rec2.times[i] {
			t.Fatal("replay diverged from first run")
		}
	}
}

// TestWheelCascadeBoundary exercises deadlines straddling the exact
// level-0/level-1 boundary around a wrap: timers due at ticks 255, 256,
// 257 and 511, 512, 513 must fire at exactly those ticks.
func TestWheelCascadeBoundary(t *testing.T) {
	eng := NewEngine()
	rec := &wheelRec{eng: eng}
	w := NewWheel(eng, Millisecond, 8, rec.fire)
	w.Start()
	deadlines := []Time{255, 256, 257, 511, 512, 513}
	for i, d := range deadlines {
		w.Schedule(int32(i), d*Millisecond)
	}
	eng.RunUntil(600 * Millisecond)
	w.Stop()
	eng.Run()
	if len(rec.ids) != len(deadlines) {
		t.Fatalf("fired %d, want %d", len(rec.ids), len(deadlines))
	}
	for i, id := range rec.ids {
		if rec.times[i] != deadlines[id]*Millisecond {
			t.Errorf("timer %d fired at %v, want %v", id, rec.times[i], deadlines[id]*Millisecond)
		}
	}
}

// TestWheelRescheduleFromFire models the open-loop arrival pattern:
// every firing reschedules its own id. The wheel must keep exactly one
// pending timer per id and never lose or duplicate one.
func TestWheelRescheduleFromFire(t *testing.T) {
	eng := NewEngine()
	const n = 100
	fired := make([]int, n)
	var w *Wheel
	w = NewWheel(eng, Millisecond, n, func(id int32) {
		fired[id]++
		w.Schedule(id, Time(1+int(id)%7)*Millisecond)
	})
	w.Start()
	for i := int32(0); i < n; i++ {
		w.Schedule(i, Time(1+int(i)%5)*Millisecond)
	}
	eng.RunUntil(1000 * Millisecond)
	if got := w.Pending(); got != n {
		t.Fatalf("pending = %d, want %d (one per id)", got, n)
	}
	for i, f := range fired {
		// First due at 1+i%5 ms, then every 1+i%7 ms, through 1000 ms.
		first, period := 1+i%5, 1+i%7
		if want := (1000-first)/period + 1; f != want {
			t.Fatalf("id %d fired %d times, want %d", i, f, want)
		}
	}
}

// wheelLayouts names the two node layouts: a node per id, and a pool
// reserved for an eighth of the ids (which grows past that on demand).
var wheelLayouts = []struct {
	name string
	make func(eng *Engine, n int, fire func(int32)) *Wheel
}{
	{"per-id", func(eng *Engine, n int, fire func(int32)) *Wheel { return NewWheel(eng, Millisecond, n, fire) }},
	{"pooled", func(eng *Engine, n int, fire func(int32)) *Wheel {
		w := NewWheel(eng, Millisecond, n, fire)
		w.Reserve(n / 8)
		if w.ids == nil {
			panic("an eighth of the ids did not reserve a pool")
		}
		return w
	}},
}

// TestWheelEmptyIsZero: a fresh wheel, and one Reset after timers in
// every level, hold nothing but zeros in their links — a pool holds no
// node, taken or returned — so neither has to fill them; the reset wheel
// then fires a new schedule as a fresh one.
func TestWheelEmptyIsZero(t *testing.T) {
	allZero := func(w *Wheel) bool {
		links := !slices.ContainsFunc(w.next, func(l int32) bool { return l != 0 })
		if w.ids != nil {
			links = w.free == 0 && w.used == 0
		}
		return links && w.head == [wheelLevels][wheelSlots]int32{} && w.tail == [wheelLevels][wheelSlots]int32{}
	}
	for _, layout := range wheelLayouts {
		eng := NewEngine()
		rec := &wheelRec{eng: eng}
		w := layout.make(eng, 64, rec.fire)
		if !allZero(w) {
			t.Fatalf("%s: a fresh wheel has non-zero links", layout.name)
		}
		w.Start()
		for i := int32(0); i < 64; i++ {
			w.Schedule(i, Time(1+int(i)*2111%70000)*Millisecond)
		}
		eng.RunUntil(300 * Millisecond)
		if w.Pending() == 0 || len(rec.ids) == 0 {
			t.Fatalf("%s: pending %d, fired %d: the schedule should straddle the reset", layout.name, w.Pending(), len(rec.ids))
		}
		w.Reset()
		if !allZero(w) || w.Pending() != 0 {
			t.Fatalf("%s: a reset wheel has non-zero links", layout.name)
		}
		eng.Run() // drain the stopped wheel's last tick event
		fired := len(rec.ids)
		w.Start()
		for i := int32(0); i < 4; i++ {
			w.Schedule(3-i, 5*Millisecond)
		}
		eng.RunUntil(eng.Now() + 10*Millisecond)
		if got := rec.ids[fired:]; !slices.Equal(got, []int32{3, 2, 1, 0}) {
			t.Fatalf("%s: after Reset the wheel fired %v, want [3 2 1 0]", layout.name, got)
		}
	}
}

// wheelPin is the zero-alloc receiver: each firing reschedules itself,
// so steady state exercises Schedule + cascade + dispatch.
type wheelPin struct {
	w *Wheel
	n uint64
}

func (p *wheelPin) fire(id int32) {
	p.n++
	// Mix of near and far deadlines so cascades stay exercised.
	d := Time(1+int(id)%300) * Millisecond
	p.w.Schedule(id, d)
}

// TestWheelAllocFree pins the tentpole property: steady-state
// scheduling, cascading and dispatch through the wheel allocate
// nothing, in either layout — a pool once it holds as many nodes as
// are ever pending.
func TestWheelAllocFree(t *testing.T) {
	for _, layout := range wheelLayouts {
		eng := NewEngine()
		pin := &wheelPin{}
		w := layout.make(eng, 1024, pin.fire)
		pin.w = w
		w.Start()
		for i := int32(0); i < 1024; i++ {
			w.Schedule(i, Time(1+i%512)*Millisecond)
		}
		end := Time(2) * Second
		eng.RunUntil(end) // warmup: event heap reaches its high-water mark

		allocs := testing.AllocsPerRun(20, func() {
			end += 100 * Millisecond
			eng.RunUntil(end)
		})
		if allocs > 0 {
			t.Fatalf("%s: wheel steady state allocated %.2f times per 100ms of ticks, want 0", layout.name, allocs)
		}
		if pin.n == 0 {
			t.Fatalf("%s: no timers fired", layout.name)
		}
		if w.used > 1024 {
			t.Fatalf("%s: %d nodes taken for 1024 ids: fired nodes are not reused", layout.name, w.used)
		}
	}
}

// refWheel is the four-level wheel with full 32-bit deadlines that the
// three-level, 16-bit wheel replaced, kept as the reference for
// TestWheelDifferential.
type refWheel struct {
	eng   *Engine
	tick  Time
	fire  func(id int32)
	start Time
	cur   uint32
	next  []int32
	when  []uint32
	head  [4][wheelSlots]int32
	tail  [4][wheelSlots]int32
}

func newRefWheel(eng *Engine, tick Time, n int, fire func(id int32)) *refWheel {
	return &refWheel{eng: eng, tick: tick, fire: fire, next: make([]int32, n), when: make([]uint32, n)}
}

func (w *refWheel) Start() {
	w.start = w.eng.Now()
	w.eng.AfterCall(w.tick, refWheelTick, w, nil)
}

func (w *refWheel) Schedule(id int32, d Time) {
	target := w.eng.Now() + d - w.start
	t := uint64(target+w.tick-1) / uint64(w.tick)
	if t <= uint64(w.cur) {
		t = uint64(w.cur) + 1
	}
	w.insert(id, uint32(t))
}

func (w *refWheel) insert(id int32, t uint32) {
	w.when[id] = t
	delta := t - w.cur
	var lvl uint
	switch {
	case delta < wheelSlots:
		lvl = 0
	case delta < 1<<(2*wheelBits):
		lvl = 1
	case delta < 1<<(3*wheelBits):
		lvl = 2
	default:
		lvl = 3
	}
	slot := (t >> (lvl * wheelBits)) & wheelMask
	w.next[id] = 0
	if last := w.tail[lvl][slot]; last == 0 {
		w.head[lvl][slot] = id + 1
	} else {
		w.next[last-1] = id + 1
	}
	w.tail[lvl][slot] = id + 1
}

func refWheelTick(a, _ any) { a.(*refWheel).advance() }

func (w *refWheel) advance() {
	w.cur++
	c := w.cur
	if c&wheelMask == 0 {
		w.cascade(1, (c>>wheelBits)&wheelMask)
		if (c>>wheelBits)&wheelMask == 0 {
			w.cascade(2, (c>>(2*wheelBits))&wheelMask)
			if (c>>(2*wheelBits))&wheelMask == 0 {
				w.cascade(3, (c>>(3*wheelBits))&wheelMask)
			}
		}
	}
	slot := c & wheelMask
	link := w.head[0][slot]
	w.head[0][slot], w.tail[0][slot] = 0, 0
	for link != 0 {
		id := link - 1
		link = w.next[id]
		w.next[id] = 0
		w.fire(id)
	}
	w.eng.AfterCall(w.tick, refWheelTick, w, nil)
}

func (w *refWheel) cascade(lvl uint, slot uint32) {
	link := w.head[lvl][slot]
	w.head[lvl][slot], w.tail[lvl][slot] = 0, 0
	for link != 0 {
		id := link - 1
		link = w.next[id]
		w.insert(id, w.when[id])
	}
}

// diffDelay is the n-th delay of id in TestWheelDifferential's history:
// a pure function of (seed, id, n), so both wheels draw the same delay
// for the same firing whatever order they fire in. Sub-tick offsets
// exercise rounding; a quarter of the delays park in level 2 (up to
// 2^18 ticks), the rest spread over levels 0 and 1 and zero.
func diffDelay(seed uint64, id int32, n int) Time {
	z := seed ^ uint64(id)<<32 ^ uint64(n)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	var ticks uint64
	switch z & 3 {
	case 0:
		ticks = z >> 8 % wheelSlots
	case 1, 2:
		ticks = z >> 8 % (1 << (2 * wheelBits))
	default:
		ticks = z>>8%(1<<18-1<<16) + 1<<16
	}
	return Time(ticks)*Millisecond + Time(z>>40%1000)*Microsecond
}

// TestWheelDifferential drives the wheel, in each layout, and the
// reference wheel through the same seeded fire-and-reschedule histories
// over 2^20 ticks — 16 level-2 cascades and as many wraps of the 16-bit
// deadline — and requires the identical (id, time) firing sequence.
func TestWheelDifferential(t *testing.T) {
	const ids, ticks = 512, 1 << 20
	for _, seed := range []uint64{1, 2, 3} {
		type firing struct {
			id int32
			at Time
		}
		run := func(sched func(id int32, d Time), start func(), eng *Engine) {
			start()
			for id := int32(0); id < ids; id++ {
				sched(id, diffDelay(seed, id, 0))
			}
			eng.RunUntil(ticks * Millisecond)
		}
		var got, want []firing
		gotN, wantN := make([]int, ids), make([]int, ids)

		refEng := NewEngine()
		var r *refWheel
		r = newRefWheel(refEng, Millisecond, ids, func(id int32) {
			want = append(want, firing{id, refEng.Now()})
			wantN[id]++
			r.Schedule(id, diffDelay(seed, id, wantN[id]))
		})
		run(r.Schedule, r.Start, refEng)

		if len(want) < 10*ids {
			t.Fatalf("seed %d: reference fired only %d timers", seed, len(want))
		}

		for _, layout := range wheelLayouts {
			got = got[:0]
			clear(gotN)
			eng := NewEngine()
			var w *Wheel
			w = layout.make(eng, ids, func(id int32) {
				got = append(got, firing{id, eng.Now()})
				gotN[id]++
				w.Schedule(id, diffDelay(seed, id, gotN[id]))
			})
			run(func(id int32, d Time) { w.Schedule(id, d) }, w.Start, eng)
			if len(got) != len(want) {
				t.Fatalf("seed %d, %s: wheel fired %d timers, reference %d", seed, layout.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d, %s: firing %d is %+v, reference %+v", seed, layout.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWheelHorizonDropsLateTimers: with a horizon, a timer due after it
// is never stored and one due at it fires, from tick 0 and after a Reset
// that restarts the wheel off the tick grid; ticking past the horizon
// panics, naming it, unless the owner stopped the wheel.
func TestWheelHorizonDropsLateTimers(t *testing.T) {
	for _, layout := range wheelLayouts {
		eng := NewEngine()
		rec := &wheelRec{eng: eng}
		w := layout.make(eng, 64, rec.fire)
		const h = 100 * Millisecond
		w.SetHorizon(h)
		w.Start()
		// Due at 99 and 100 ms, then at 101 ms (100.5 rounds up), 101 ms,
		// and in levels 1 and 2.
		for i, d := range []Time{99 * Millisecond, h, h + 500*Microsecond, h + Millisecond, 5 * Second, 70 * Second} {
			if stored := w.Schedule(int32(i), d); stored != (d <= h) {
				t.Fatalf("%s: Schedule(%d, %v) reports stored=%v", layout.name, i, d, stored)
			}
		}
		if got := w.Pending(); got != 2 {
			t.Fatalf("%s: %d timers stored, want the 2 due by the horizon", layout.name, got)
		}
		eng.RunUntil(h)
		if !slices.Equal(rec.ids, []int32{0, 1}) || !slices.Equal(rec.times, []Time{99 * Millisecond, h}) {
			t.Fatalf("%s: fired %v at %v, want [0 1] at 99 and 100 ms", layout.name, rec.ids, rec.times)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, FormatTime(h)) {
					t.Fatalf("%s: ticking past the horizon recovered %q, want a panic naming %s", layout.name, msg, FormatTime(h))
				}
			}()
			eng.RunUntil(h + Millisecond)
		}()

		// Restart 40.3 ms in: ticks fall at 40.3 + k ms, the last one
		// by the horizon at 99.3 ms.
		w.Reset()
		eng = NewEngine()
		w.eng, rec.eng, rec.ids, rec.times = eng, eng, nil, nil
		eng.RunUntil(40*Millisecond + 300*Microsecond)
		w.Start()
		if !w.Schedule(0, 59*Millisecond) || // 99.3 ms
			w.Schedule(1, 59*Millisecond+500*Microsecond) { // rounds to 100.3 ms
			t.Fatalf("%s: after a restart Schedule misreports what it stored", layout.name)
		}
		if got := w.Pending(); got != 1 {
			t.Fatalf("%s: after a restart %d timers stored, want 1", layout.name, got)
		}
		eng.RunUntil(h - Millisecond + 300*Microsecond)
		w.Stop()
		eng.RunUntil(2 * Second)
		if !slices.Equal(rec.ids, []int32{0}) || rec.times[0] != 99*Millisecond+300*Microsecond {
			t.Fatalf("%s: after a restart fired %v at %v, want [0] at 99.3 ms", layout.name, rec.ids, rec.times)
		}
		if n := w.Pending(); n != 0 {
			t.Fatalf("%s: a stopped wheel holds %d timers", layout.name, n)
		}
	}
}

// TestWheelPooledMatchesPerID drives both layouts through the same
// random histories: firings that re-arm their own id at any level or
// not at all and arm an idle id beside it (so the pool, reserved for an
// eighth of the ids, grows), then a Reset and a re-arm of every third id. Both must fire
// the same ids at the same times.
func TestWheelPooledMatchesPerID(t *testing.T) {
	const ids, ticks = 300, 1 << 20
	type firing struct {
		id int32
		at Time
	}
	drive := func(seed uint64, layout int) ([]firing, int) {
		eng := NewEngine()
		var got []firing
		pending := make([]bool, ids)
		count := make([]int, ids)
		var w *Wheel
		arm := func(id int32) {
			pending[id] = true
			count[id]++
			w.Schedule(id, diffDelay(seed, id, count[id]))
		}
		w = wheelLayouts[layout].make(eng, ids, func(id int32) {
			got = append(got, firing{id, eng.Now()})
			pending[id] = false
			z := uint64(diffDelay(seed^0xA5, id, count[id]))
			if z%5 != 0 {
				arm(id)
			}
			if other := int32(z / 5 % ids); !pending[other] {
				arm(other)
			}
		})
		w.Start()
		for id := int32(0); id < ids; id += 2 {
			arm(id)
		}
		eng.RunUntil(ticks / 2 * Millisecond)
		w.Reset()
		clear(pending)
		eng.Run() // the stopped wheel's last tick event
		w.Start()
		for id := int32(0); id < ids; id += 3 {
			arm(id)
		}
		eng.RunUntil(eng.Now() + ticks/2*Millisecond)
		return got, len(w.next)
	}
	for _, seed := range []uint64{1, 2, 3} {
		perID, _ := drive(seed, 0)
		pooled, nodes := drive(seed, 1)
		if len(perID) < 10*ids || nodes <= ids/8 {
			t.Fatalf("seed %d: %d firings, a pool of %d nodes: the history should fire 10 times per id and grow the pool", seed, len(perID), nodes)
		}
		if !slices.Equal(perID, pooled) {
			i := 0
			for i < min(len(perID), len(pooled)) && perID[i] == pooled[i] {
				i++
			}
			t.Fatalf("seed %d: the layouts diverge at firing %d of %d/%d", seed, i, len(perID), len(pooled))
		}
	}
}

// TestWheelReserveChoosesLayout: a reservation costing less than a node
// per id gets a pool, 10 B a node; one costing as much keeps a node per
// id, 6 B an id; and FootprintBytes reports what was laid out.
func TestWheelReserveChoosesLayout(t *testing.T) {
	const slots = wheelLevels * wheelSlots * 8
	for _, tc := range []struct {
		reserve int
		pooled  bool
		bytes   int64
	}{
		{599, true, 5990},
		{600, false, 6000},
		{5000, false, 6000},
	} {
		w := NewWheel(NewEngine(), Millisecond, 1000, func(int32) {})
		if got := w.FootprintBytes(); got != slots {
			t.Fatalf("an unlaid wheel reports %d B, want %d", got, slots)
		}
		w.Reserve(tc.reserve)
		if (w.ids != nil) != tc.pooled || w.FootprintBytes() != tc.bytes+slots {
			t.Errorf("Reserve(%d): pooled %v, %d B; want %v, %d B", tc.reserve, w.ids != nil, w.FootprintBytes()-slots, tc.pooled, tc.bytes)
		}
	}
}
