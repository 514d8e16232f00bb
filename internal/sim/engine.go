package sim

import "math"

// EventFunc is the engine's typed event callback. The two payload words
// carry the callback's receiver and operand (for example an *MDS and the
// *msg.Request it should process), so the overwhelmingly common
// schedule-with-receiver case stores two pointers into the event instead
// of allocating a closure per event. Pointer-shaped values (pointers,
// funcs, interfaces) convert to `any` without allocating, which keeps
// steady-state scheduling allocation-free.
type EventFunc func(a, b any)

// Call is one continuation in the engine's typed callback form: Run
// calls Fn(A, B). Every holder of pending work — an event, a queued
// job, a message in flight, a fetch and its waiters — holds one.
//
// At five words a Call is too big for the compiler to keep in
// registers: a Call literal stored through a pointer, or a Call
// returned and then copied, is staged on the stack and block-copied.
// So holders are filled with Set, and the engine's pops hand back the
// three words (BenchmarkServerPipeline on a 2-core Xeon: 46 ns a job
// with both copies, 36 without).
type Call struct {
	Fn   EventFunc
	A, B any
}

// Run runs the continuation.
func (c Call) Run() { c.Fn(c.A, c.B) }

// Set fills c in place with fn, a and b.
func (c *Call) Set(fn EventFunc, a, b any) { c.Fn, c.A, c.B = fn, a, b }

// callFunc0 adapts a bare func() to an EventFunc. Func values are
// pointer-shaped, so the conversion to `any` does not allocate.
func callFunc0(a, b any) { a.(func())() }

// event is a scheduled callback. seq breaks ties between events scheduled
// for the same instant so that execution order is insertion order,
// keeping the simulation deterministic. Events are stored by value in the
// engine's flat heap slice and lane rings: scheduling allocates nothing
// once they have grown to the simulation's natural high-water mark.
type event struct {
	at   Time
	seq  uint64
	call Call
}

// Engine is a discrete-event simulation executive. The zero value is not
// usable; construct with NewEngine.
//
// The queue is a hand-rolled 4-ary min-heap over a flat []event slice
// plus up to maxLanes FIFO lanes, dispatched as one queue ordered by
// (at, seq). An event scheduled a recurring delay after now — a fixed
// service time, a link latency, a timer tick — goes to that delay's
// lane, where it is in order on arrival: now never decreases and seq
// always increases, so each push is the lane's latest event. Dispatch
// takes the earliest of the heap top and the lane heads, so events run
// in the order one heap holding them all would give, and lane events
// skip the sifts. Compared to container/heap the heap is monomorphic —
// no heap.Interface calls, no interface{} boxing on push/pop — and the
// wider fan-out halves tree depth.
type Engine struct {
	now Time
	q   []event
	seq uint64
	// Executed counts events dispatched since construction.
	Executed uint64

	lanes  [maxLanes]lane
	nlanes int
	seen   [1 << seenBits]sighting
}

// The lane policy. Each slot of a small direct-mapped sighting table
// holds one delay and a count that rises each time that delay is
// scheduled and falls each time another delay hashing to the slot is;
// at zero the slot passes to the newcomer. A delay gets a lane when its
// count reaches laneSightings, while fewer than maxLanes exist, and the
// lane keeps the slot for good. Delays drawn from a wide range never
// outnumber one another and stay in the heap; the few fixed service
// times and ticks of a run are promoted within its first simulated
// second.
const (
	maxLanes      = 8
	laneSightings = 64
	seenBits      = 6
)

// emptyAt and emptySeq are the head key of an empty lane or heap: every
// real event sorts before it.
const (
	emptyAt  Time   = math.MaxInt64
	emptySeq uint64 = math.MaxUint64
)

// sighting is one slot of the sighting table.
type sighting struct {
	d    Time
	n    int32 // d's count: its sightings less the other delays' since it took the slot
	lane int32 // 1 + the index of d's lane; 0 while d has none
}

// lane is a FIFO ring of events scheduled one delay after the time they
// were scheduled at, so they arrive in (at, seq) order. The n
// events are buf[(head+i)&(len(buf)-1)] for i in [0, n); len(buf) is
// zero or a power of two and never shrinks. at and seq cache the head's
// key (emptyAt, emptySeq while the lane is empty), so dispatch compares
// lane heads without touching the rings.
type lane struct {
	at   Time
	seq  uint64
	buf  []event
	head int
	n    int
}

func (l *lane) push(ev event) {
	if l.n == len(l.buf) {
		l.buf, l.head = growRing(l.buf, l.head, 16), 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ev
	if l.n == 0 {
		l.at, l.seq = ev.at, ev.seq
	}
	l.n++
}

// pop removes the head event and returns its call's words. The vacated
// slot is zeroed so the payload words do not pin dead objects.
func (l *lane) pop() (EventFunc, any, any) {
	ev := &l.buf[l.head]
	fn, a, b := ev.call.Fn, ev.call.A, ev.call.B
	*ev = event{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	if l.n == 0 {
		l.at, l.seq = emptyAt, emptySeq
	} else {
		next := &l.buf[l.head]
		l.at, l.seq = next.at, next.seq
	}
	return fn, a, b
}

// growRing returns a full ring's contents unrolled from head into a
// buffer twice its length (at least minLen), starting at index 0.
func growRing[T any](ring []T, head, minLen int) []T {
	grown := make([]T, max(minLen, 2*len(ring)))
	n := copy(grown, ring[head:])
	copy(grown[n:], ring[:head])
	return grown
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	e.AtCall(t, callFunc0, fn, nil)
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	e.AfterCall(d, callFunc0, fn, nil)
}

// AtCall schedules fn(a, b) at absolute virtual time t without
// allocating: the payload words ride in the event itself. Scheduling in
// the past panics, as for At.
func (e *Engine) AtCall(t Time, fn EventFunc, a, b any) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	ev := event{at: t, seq: e.seq, call: Call{fn, a, b}}
	if l := e.laneFor(t - e.now); l != nil {
		l.push(ev)
		return
	}
	e.q = append(e.q, ev)
	e.siftUp(len(e.q) - 1)
}

// laneFor returns the lane of delay d, promoting d to one when its count
// reaches laneSightings; nil sends the event to the heap.
func (e *Engine) laneFor(d Time) *lane {
	s := &e.seen[uint64(d)*0x9E3779B97F4A7C15>>(64-seenBits)]
	switch {
	case s.d == d && s.lane != 0:
		return &e.lanes[s.lane-1]
	case s.lane != 0 || e.nlanes == maxLanes:
		return nil // another delay's lane holds the slot, or none is left to give
	case s.d != d:
		if s.n--; s.n <= 0 {
			*s = sighting{d: d, n: 1}
		}
		return nil
	}
	if s.n++; s.n < laneSightings {
		return nil
	}
	l := &e.lanes[e.nlanes]
	e.nlanes++
	s.lane = int32(e.nlanes)
	return l
}

// AfterCall schedules fn(a, b) to run d after the current time.
// Negative d panics.
func (e *Engine) AfterCall(d Time, fn EventFunc, a, b any) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.AtCall(e.now+d, fn, a, b)
}

// Run dispatches events in timestamp order until the queue is empty.
// The clock remains at the last dispatched event.
func (e *Engine) Run() { e.dispatch(emptyAt) }

// RunUntil dispatches events with timestamps <= end, then advances the
// clock to end: idle virtual time passes.
func (e *Engine) RunUntil(end Time) {
	e.dispatch(end)
	if e.now < end {
		e.now = end
	}
}

// dispatch runs events in (at, seq) order while the earliest is due at
// or before last, until the queue is empty.
func (e *Engine) dispatch(last Time) {
	for {
		src, at, ok := e.earliest()
		if !ok || at > last {
			return
		}
		var fn EventFunc
		var a, b any
		if src < 0 {
			fn, a, b = e.pop()
		} else {
			fn, a, b = e.lanes[src].pop()
		}
		e.now = at
		e.Executed++
		fn(a, b)
	}
}

// earliest returns where the next event waits — a lane index, or -1 for
// the heap top — and its time; ok is false when nothing is pending.
func (e *Engine) earliest() (src int, at Time, ok bool) {
	at, seq := emptyAt, emptySeq
	if len(e.q) > 0 {
		at, seq = e.q[0].at, e.q[0].seq
	}
	src = -1
	for i := range e.lanes[:e.nlanes] {
		l := &e.lanes[i]
		if l.at < at || l.at == at && l.seq < seq {
			src, at, seq = i, l.at, l.seq
		}
	}
	return src, at, seq != emptySeq
}

// less orders events by (at, seq).
func less(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// siftUp restores the heap property after appending at index i.
func (e *Engine) siftUp(i int) {
	q := e.q
	ev := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(&ev, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// pop removes the heap's minimum event and returns its call's words.
// The vacated slot is zeroed so the payload words do not pin dead
// objects.
func (e *Engine) pop() (EventFunc, any, any) {
	q := e.q
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	e.q = q
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if less(&q[j], &q[m]) {
					m = j
				}
			}
			if !less(&q[m], &last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	return top.call.Fn, top.call.A, top.call.B
}
