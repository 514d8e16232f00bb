package sim

import "math"

// Wheel is a hierarchical timer wheel for timer populations far too
// large for the event heap: millions of pending client arrivals would
// otherwise dominate heap sift costs and memory (56 bytes/event). The
// wheel holds at most one pending timer per id in flat arrays of nodes
// (a link and a 16-bit deadline each, no per-timer allocation) threaded
// into intrusive per-slot FIFO lists, and drives itself with a single
// recurring engine event: each tick dispatches the due slot in insertion
// order, so dispatch order is deterministic for a fixed schedule.
//
// Three levels of 256 slots cover 2^24 ticks (4.66 h at a 1 ms tick). A
// timer due within 256 ticks sits in level 0 at its exact slot; farther
// deadlines park in the level whose granularity covers them and cascade
// down one level each time their slot comes up, landing in level 0 on
// time. The contract is one pending timer per id: Schedule on an id
// that is already pending corrupts the lists.
//
// Nodes come in one of two layouts, fixed before the first timer. By
// default node i is id i (6 bytes per id). A wheel whose owner expects
// few of its ids to be pending at once Reserves that many nodes, and
// when they cost less than 6 bytes per id the nodes form a pool that
// also records each node's id (10 bytes per node), taken on Schedule
// and returned on firing. A horizon (SetHorizon) bounds what the wheel
// stores: a timer due after it is dropped, since its owner has declared
// it will ignore fires by then.
type Wheel struct {
	eng  *Engine
	tick Time // duration of one tick
	fire func(id int32)
	n    int // ids are [0, n)

	start   Time   // engine time of tick 0 (set by Start)
	cur     uint32 // ticks fully dispatched
	stopped bool

	// horizon is the engine time after which no timer is stored, last
	// the last tick at or before it (math.MaxUint64: none). Ticking past
	// last panics: the owner would have lost the timers dropped there.
	// An owner that ignores fires from some instant on stops the wheel.
	horizon Time
	last    uint64

	// Intrusive node links, each holding a node plus one so that zero
	// means none and an empty wheel is its zero value: next[node] chains
	// nodes within a slot, head and tail end each slot's list. when[node]
	// is the low 16 bits of the deadline tick, needed to re-slot entries
	// on cascade. Sixteen bits suffice: a level-1 or level-2 entry is
	// cascaded at the tick c whose upper bits equal its deadline's, so
	// the deadline is c plus the low bits' distance from c's; a level-0
	// entry never reads its deadline.
	next []int32
	when []uint16

	// The pooled layout only (nil ids: node i is id i). ids[node] is the
	// node's id; free chains returned nodes through next (plus one, zero:
	// none), and nodes from used on have never been taken.
	ids  []int32
	free int32
	used int32

	head [wheelLevels][wheelSlots]int32
	tail [wheelLevels][wheelSlots]int32
}

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	// wheelRange is the farthest deadline, in ticks from now, that the
	// levels cover.
	wheelRange = 1 << (wheelLevels * wheelBits)
	// Bytes of one node in each layout: a link and a deadline, plus the
	// id in the pool.
	idNodeBytes   = 6
	poolNodeBytes = 10
)

// NewWheel creates a wheel for ids in [0, n) firing fire(id) when each
// timer comes due; tick is the scheduling granularity (deadlines round
// up to the next tick boundary). It allocates no nodes: Reserve picks
// their layout, and a first Schedule without one lays out a node per id.
func NewWheel(eng *Engine, tick Time, n int, fire func(id int32)) *Wheel {
	if tick <= 0 {
		panic("sim: wheel tick must be positive")
	}
	if n < 0 {
		panic("sim: negative wheel population")
	}
	return &Wheel{eng: eng, tick: tick, fire: fire, n: n, horizon: math.MaxInt64, last: math.MaxUint64}
}

// Reserve lays out the nodes for at most k timers pending at once: a
// pool of k nodes when that costs less than a node per id, else a node
// per id. A pool grows, allocating, if more are ever pending. Call
// before the first Schedule.
func (w *Wheel) Reserve(k int) {
	if w.next != nil {
		panic("sim: wheel reserved after its nodes were laid out")
	}
	if k*poolNodeBytes >= w.n*idNodeBytes {
		k = w.n
	} else {
		w.ids = make([]int32, k)
	}
	w.next, w.when = make([]int32, k), make([]uint16, k)
}

// SetHorizon declares that the owner ignores every fire after engine
// time h: a timer due after h is dropped instead of stored, and the
// wheel panics if it ticks past h before Stop. A timer due at h fires.
func (w *Wheel) SetHorizon(h Time) {
	w.horizon = h
	w.setLast()
}

// setLast derives the last tick that may fire from the horizon and tick 0.
func (w *Wheel) setLast() {
	switch {
	case w.horizon == math.MaxInt64:
		w.last = math.MaxUint64
	case w.horizon < w.start:
		w.last = 0
	default:
		w.last = uint64((w.horizon - w.start) / w.tick)
	}
}

// Start anchors tick 0 at the current engine time and schedules the
// recurring tick event. Timers may be scheduled before or after Start;
// before Start the wheel assumes it will be started at the current
// engine time.
func (w *Wheel) Start() {
	w.start = w.eng.Now()
	w.setLast()
	w.stopped = false
	w.eng.AfterCall(w.tick, wheelTick, w, nil)
}

// Stop halts ticking (and therefore all future firing) after the
// currently dispatched tick, if any, completes.
func (w *Wheel) Stop() { w.stopped = true }

// Reset discards every pending timer and rewinds the wheel to tick 0.
// The endurance plane uses it at checkpoint resume: rather than
// serializing millions of pending arrival deadlines, both the
// checkpointing run and the restored run Reset the wheel and re-arm
// every client from its own RNG stream, so the post-resume arrival
// process is identical in both.
func (w *Wheel) Reset() {
	if w.ids == nil {
		clear(w.next)
	}
	w.free, w.used = 0, 0
	w.head, w.tail = [wheelLevels][wheelSlots]int32{}, [wheelLevels][wheelSlots]int32{}
	w.cur = 0
	w.stopped = true
}

// FootprintBytes returns the wheel's memory: its nodes (6 bytes per id,
// or 10 per pooled node) plus the fixed slot head/tail arrays.
func (w *Wheel) FootprintBytes() int64 {
	return int64(cap(w.next))*4 + int64(cap(w.when))*2 + int64(cap(w.ids))*4 + wheelLevels*wheelSlots*8
}

// Schedule arms id's timer d after the current engine time, rounded up
// to the next tick boundary (minimum one tick ahead), or drops it if
// that is past the horizon, and reports whether it stored the timer.
// The id must not already be pending.
func (w *Wheel) Schedule(id int32, d Time) bool {
	if d < 0 {
		panic("sim: negative wheel delay")
	}
	target := w.eng.Now() + d - w.start
	t := uint64(target+w.tick-1) / uint64(w.tick)
	if t <= uint64(w.cur) {
		t = uint64(w.cur) + 1
	}
	if t > w.last {
		return false
	}
	if t-uint64(w.cur) >= wheelRange {
		panic("sim: wheel range exceeded")
	}
	if w.next == nil {
		w.Reserve(w.n)
	}
	node := id
	if w.ids != nil {
		node = w.take(id)
	}
	w.insert(node, uint32(t))
	return true
}

// take returns a pooled node holding id: a returned one, else one never
// taken, growing the pool when none is left.
func (w *Wheel) take(id int32) int32 {
	node := w.free - 1
	if node >= 0 {
		w.free = w.next[node]
	} else {
		node = w.used
		w.used++
		if int(node) == len(w.ids) {
			w.next, w.when, w.ids = append(w.next, 0), append(w.when, 0), append(w.ids, 0)
		}
	}
	w.ids[node] = id
	return node
}

// insert links node into the slot covering deadline tick t.
func (w *Wheel) insert(node int32, t uint32) {
	w.when[node] = uint16(t)
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
	w.next[node] = 0
	if last := w.tail[lvl][slot]; last == 0 {
		w.head[lvl][slot] = node + 1
	} else {
		w.next[last-1] = node + 1
	}
	w.tail[lvl][slot] = node + 1
}

// wheelTick is the recurring tick dispatcher: the wheel itself rides in
// the event payload, so perpetual ticking never allocates.
func wheelTick(a, _ any) { a.(*Wheel).advance() }

func (w *Wheel) advance() {
	if w.stopped {
		return
	}
	w.cur++
	c := w.cur
	if uint64(c) > w.last {
		panic("sim: the wheel ticked past its horizon " + FormatTime(w.horizon) + " with its owner still live")
	}
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
		node := link - 1
		link = w.next[node]
		id := node
		if w.ids == nil {
			w.next[node] = 0
		} else {
			// Returned before firing, so a re-arm from fire takes it back.
			id = w.ids[node]
			w.next[node] = w.free
			w.free = node + 1
		}
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
		node := link - 1
		link = w.next[node]
		w.insert(node, c+uint32(w.when[node]-uint16(c)))
	}
}
