package sim

import (
	"slices"
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
// the horizon's last tick, and checks each fires at its deadline rounded
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
		65600 * Millisecond,              // level 2
		(wheelHorizon - 1) * Millisecond, // the horizon's last tick
	}
	w.Start()
	for i, d := range delays {
		w.Schedule(int32(i), d)
	}
	eng.RunUntil((wheelHorizon + 16) * Millisecond)
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
// cover is refused, not wrapped onto an earlier slot.
func TestWheelHorizon(t *testing.T) {
	eng := NewEngine()
	w := NewWheel(eng, Millisecond, 1, func(int32) {})
	w.Start()
	defer func() {
		if r := recover(); r != "sim: wheel horizon exceeded" {
			t.Fatalf("recovered %v, want the horizon panic", r)
		}
	}()
	w.Schedule(0, wheelHorizon*Millisecond)
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

// TestWheelEmptyIsZero: a fresh wheel, and one Reset after timers in
// every level, hold nothing but zeros in their links, so neither has to
// fill them; the reset wheel then fires a new schedule as a fresh one.
func TestWheelEmptyIsZero(t *testing.T) {
	allZero := func(w *Wheel) bool {
		return !slices.ContainsFunc(w.next, func(l int32) bool { return l != 0 }) &&
			w.head == [wheelLevels][wheelSlots]int32{} && w.tail == [wheelLevels][wheelSlots]int32{}
	}
	eng := NewEngine()
	rec := &wheelRec{eng: eng}
	w := NewWheel(eng, Millisecond, 64, rec.fire)
	if !allZero(w) {
		t.Fatal("a fresh wheel has non-zero links")
	}
	w.Start()
	for i := int32(0); i < 64; i++ {
		w.Schedule(i, Time(1+int(i)*2111%70000)*Millisecond)
	}
	eng.RunUntil(300 * Millisecond)
	if w.Pending() == 0 || len(rec.ids) == 0 {
		t.Fatalf("pending %d, fired %d: the schedule should straddle the reset", w.Pending(), len(rec.ids))
	}
	w.Reset()
	if !allZero(w) || w.Pending() != 0 {
		t.Fatal("a reset wheel has non-zero links")
	}
	eng.Run() // drain the stopped wheel's last tick event
	fired := len(rec.ids)
	w.Start()
	for i := int32(0); i < 4; i++ {
		w.Schedule(3-i, 5*Millisecond)
	}
	eng.RunUntil(eng.Now() + 10*Millisecond)
	if got := rec.ids[fired:]; !slices.Equal(got, []int32{3, 2, 1, 0}) {
		t.Fatalf("after Reset the wheel fired %v, want [3 2 1 0]", got)
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
// nothing.
func TestWheelAllocFree(t *testing.T) {
	eng := NewEngine()
	pin := &wheelPin{}
	w := NewWheel(eng, Millisecond, 1024, pin.fire)
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
		t.Fatalf("wheel steady state allocated %.2f times per 100ms of ticks, want 0", allocs)
	}
	if pin.n == 0 {
		t.Fatal("no timers fired")
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

// TestWheelDifferential drives the wheel and the reference wheel through
// the same seeded fire-and-reschedule histories over 2^20 ticks — 16
// level-2 cascades and as many wraps of the 16-bit deadline — and
// requires the identical (id, time) firing sequence from both.
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

		eng := NewEngine()
		var w *Wheel
		w = NewWheel(eng, Millisecond, ids, func(id int32) {
			got = append(got, firing{id, eng.Now()})
			gotN[id]++
			w.Schedule(id, diffDelay(seed, id, gotN[id]))
		})
		run(w.Schedule, w.Start, eng)

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
		if len(got) != len(want) {
			t.Fatalf("seed %d: wheel fired %d timers, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}
