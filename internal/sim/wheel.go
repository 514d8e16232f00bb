package sim

// Wheel is a hierarchical timer wheel for timer populations far too
// large for the event heap: millions of pending client arrivals would
// otherwise dominate heap sift costs and memory (56 bytes/event). The
// wheel stores one pending timer per id in two flat int32/uint16 arrays
// (6 bytes/id, no per-timer allocation) threaded into intrusive
// per-slot FIFO lists, and drives itself with a single recurring engine
// event: each tick dispatches the due slot in insertion order, so
// dispatch order is deterministic for a fixed schedule.
//
// Three levels of 256 slots cover 2^24 ticks (4.66 h at a 1 ms tick). A
// timer due within 256 ticks sits in level 0 at its exact slot; farther
// deadlines park in the level whose granularity covers them and cascade
// down one level each time their slot comes up, landing in level 0 on
// time. The contract is one pending timer per id: Schedule on an id
// that is already pending corrupts the lists.
type Wheel struct {
	eng  *Engine
	tick Time // duration of one tick
	fire func(id int32)

	start   Time   // engine time of tick 0 (set by Start)
	cur     uint32 // ticks fully dispatched
	stopped bool

	// Ticks counts tick events dispatched; Fired counts timers fired.
	Ticks uint64
	Fired uint64

	// Intrusive per-id links, each holding an id plus one so that zero
	// means none and an empty wheel is its zero value: next[id] chains
	// ids within a slot, head and tail end each slot's list. when[id] is
	// the low 16 bits of the deadline tick, needed to re-slot entries on
	// cascade. Sixteen bits suffice: a level-1 or level-2 entry is
	// cascaded at the tick c whose upper bits equal its deadline's, so
	// the deadline is c plus the low bits' distance from c's; a level-0
	// entry never reads its deadline.
	next []int32
	when []uint16

	head [wheelLevels][wheelSlots]int32
	tail [wheelLevels][wheelSlots]int32
}

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	// wheelHorizon is the farthest deadline, in ticks from now, that
	// the levels cover.
	wheelHorizon = 1 << (wheelLevels * wheelBits)
)

// NewWheel creates a wheel for ids in [0, n) firing fire(id) when each
// timer comes due; tick is the scheduling granularity (deadlines round
// up to the next tick boundary).
func NewWheel(eng *Engine, tick Time, n int, fire func(id int32)) *Wheel {
	if tick <= 0 {
		panic("sim: wheel tick must be positive")
	}
	if n < 0 {
		panic("sim: negative wheel population")
	}
	return &Wheel{eng: eng, tick: tick, fire: fire, next: make([]int32, n), when: make([]uint16, n)}
}

// Start anchors tick 0 at the current engine time and schedules the
// recurring tick event. Timers may be scheduled before or after Start;
// before Start the wheel assumes it will be started at the current
// engine time.
func (w *Wheel) Start() {
	w.start = w.eng.Now()
	w.stopped = false
	w.eng.AfterCall(w.tick, wheelTick, w, nil)
}

// Stop halts ticking (and therefore all future firing) after the
// currently dispatched tick, if any, completes.
func (w *Wheel) Stop() { w.stopped = true }

// Reset discards every pending timer and rewinds the wheel to tick 0,
// keeping the cumulative Ticks/Fired counters. The endurance plane uses
// it at checkpoint resume: rather than serializing millions of pending
// arrival deadlines, both the checkpointing run and the restored run
// Reset the wheel and re-arm every client from its own RNG stream, so
// the post-resume arrival process is identical in both.
func (w *Wheel) Reset() {
	clear(w.next)
	w.head, w.tail = [wheelLevels][wheelSlots]int32{}, [wheelLevels][wheelSlots]int32{}
	w.cur = 0
	w.stopped = true
}

// FootprintBytes returns the wheel's memory: 6 bytes per id (intrusive
// link + deadline) plus the fixed slot head/tail arrays.
func (w *Wheel) FootprintBytes() int64 {
	return int64(len(w.next))*6 + wheelLevels*wheelSlots*8
}

// Schedule arms id's timer d after the current engine time, rounded up
// to the next tick boundary (minimum one tick ahead). The id must not
// already be pending.
func (w *Wheel) Schedule(id int32, d Time) {
	if d < 0 {
		panic("sim: negative wheel delay")
	}
	target := w.eng.Now() + d - w.start
	t := uint64(target+w.tick-1) / uint64(w.tick)
	if t <= uint64(w.cur) {
		t = uint64(w.cur) + 1
	}
	if t-uint64(w.cur) >= wheelHorizon {
		panic("sim: wheel horizon exceeded")
	}
	w.insert(id, uint32(t))
}

// insert links id into the slot covering deadline tick t.
func (w *Wheel) insert(id int32, t uint32) {
	w.when[id] = uint16(t)
	delta := t - w.cur
	var lvl uint
	switch {
	case delta < wheelSlots:
		lvl = 0
	case delta < 1<<(2*wheelBits):
		lvl = 1
	default:
		lvl = 2
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

// wheelTick is the recurring tick dispatcher: the wheel itself rides in
// the event payload, so perpetual ticking never allocates.
func wheelTick(a, _ any) { a.(*Wheel).advance() }

func (w *Wheel) advance() {
	if w.stopped {
		return
	}
	w.Ticks++
	w.cur++
	c := w.cur
	// Cascade a higher level each time the level below wraps: its due
	// slot re-slots by stored deadline, landing due-now entries in the
	// level-0 slot dispatched below.
	if c&wheelMask == 0 {
		w.cascade(1, (c>>wheelBits)&wheelMask)
		if (c>>wheelBits)&wheelMask == 0 {
			w.cascade(2, (c>>(2*wheelBits))&wheelMask)
		}
	}
	slot := c & wheelMask
	link := w.head[0][slot]
	w.head[0][slot] = 0
	w.tail[0][slot] = 0
	for link != 0 {
		id := link - 1
		link = w.next[id]
		w.next[id] = 0
		w.Fired++
		w.fire(id)
	}
	if !w.stopped {
		w.eng.AfterCall(w.tick, wheelTick, w, nil)
	}
}

// cascade drains one slot of a higher level, re-slotting each entry by
// its deadline; relative order within the slot is preserved, so two
// timers due the same tick fire in scheduling order regardless of how
// many cascades they crossed. The deadline lies less than 2^16 ticks
// past the current tick, so its low 16 bits recover it.
func (w *Wheel) cascade(lvl uint, slot uint32) {
	c := w.cur
	link := w.head[lvl][slot]
	w.head[lvl][slot] = 0
	w.tail[lvl][slot] = 0
	for link != 0 {
		id := link - 1
		link = w.next[id]
		w.insert(id, c+uint32(w.when[id]-uint16(c)))
	}
}
