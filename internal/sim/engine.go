package sim

// EventFunc is the engine's typed event callback. The two payload words
// carry the callback's receiver and operand (for example an *MDS and the
// *msg.Request it should process), so the overwhelmingly common
// schedule-with-receiver case stores two pointers into the event instead
// of allocating a closure per event. Pointer-shaped values (pointers,
// funcs, interfaces) convert to `any` without allocating, which keeps
// steady-state scheduling allocation-free.
type EventFunc func(a, b any)

// callFunc0 adapts a bare func() to an EventFunc. Func values are
// pointer-shaped, so the conversion to `any` does not allocate.
func callFunc0(a, b any) { a.(func())() }

// event is a scheduled callback. seq breaks ties between events scheduled
// for the same instant so that execution order is insertion order,
// keeping the simulation deterministic. Events are stored by value in the
// engine's flat heap slice: scheduling allocates nothing once the slice
// has grown to the simulation's natural high-water mark.
type event struct {
	at   Time
	seq  uint64
	fn   EventFunc
	a, b any
}

// Engine is a discrete-event simulation executive. The zero value is not
// usable; construct with NewEngine.
//
// The queue is a hand-rolled 4-ary min-heap over a flat []event slice,
// ordered by (at, seq). Compared to container/heap it is monomorphic —
// no heap.Interface calls, no interface{} boxing on push/pop — and the
// wider fan-out halves tree depth, which matters because sift-down
// dominates: every dispatched event pays one.
type Engine struct {
	now     Time
	q       []event
	seq     uint64
	stopped bool
	// Executed counts events dispatched since construction.
	Executed uint64

	// Deferred-mutation buffer for sharded (conservative parallel)
	// execution. While deferring is set, Defer records the call instead
	// of running it; the shard barrier applies all shards' buffers in a
	// deterministic merge order. In serial execution deferring is false
	// and Defer degenerates to an immediate call, so the serial engine's
	// behaviour is bit-identical with or without Defer at the call sites.
	deferring bool
	gops      []gop
	gopSeq    uint64
}

// gop ("global op") is one deferred shared-state mutation recorded during
// a lookahead window: the virtual time it was requested at, a per-engine
// sequence number, and the call to make. Buffers are reused across
// windows, so steady-state deferral allocates nothing.
type gop struct {
	at   Time
	seq  uint64
	fn   EventFunc
	a, b any
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
	e.q = append(e.q, event{at: t, seq: e.seq, fn: fn, a: a, b: b})
	e.siftUp(len(e.q) - 1)
}

// AfterCall schedules fn(a, b) to run d after the current time.
// Negative d panics.
func (e *Engine) AfterCall(d Time, fn EventFunc, a, b any) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.AtCall(e.now+d, fn, a, b)
}

// Run dispatches events in timestamp order until the queue is empty or
// Stop is called. The clock remains at the last dispatched event.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && len(e.q) > 0 {
		fn, a, b := e.pop()
		e.Executed++
		fn(a, b)
	}
}

// RunUntil dispatches events with timestamps <= end, then (unless Stop
// was called) advances the clock to end: idle virtual time passes.
func (e *Engine) RunUntil(end Time) {
	e.stopped = false
	for !e.stopped && len(e.q) > 0 && e.q[0].at <= end {
		fn, a, b := e.pop()
		e.Executed++
		fn(a, b)
	}
	if !e.stopped && e.now < end {
		e.now = end
	}
}

// RunWindow dispatches events with timestamps strictly before end, then
// (unless Stop was called) advances the clock to end. The half-open
// window is the sharded executor's unit of progress: events scheduled
// exactly at the barrier instant — merged cross-shard deliveries, global
// barrier work — belong to the next window.
func (e *Engine) RunWindow(end Time) {
	e.stopped = false
	for !e.stopped && len(e.q) > 0 && e.q[0].at < end {
		fn, a, b := e.pop()
		e.Executed++
		fn(a, b)
	}
	if !e.stopped && e.now < end {
		e.now = end
	}
}

// NextEventTime returns the timestamp of the earliest pending event.
// ok is false when the queue is empty.
func (e *Engine) NextEventTime() (t Time, ok bool) {
	if len(e.q) == 0 {
		return 0, false
	}
	return e.q[0].at, true
}

// SetDeferring switches the engine between immediate and deferred
// application of Defer calls. The sharded executor enables it for the
// shard engines; serial engines leave it off.
func (e *Engine) SetDeferring(on bool) { e.deferring = on }

// Defer runs fn(a, b) immediately in serial execution, or records it for
// deterministic application at the next shard barrier in sharded
// execution. Model code routes every mutation of cross-shard shared
// state (the namespace tree, per-inode tags, strategy tables) through
// Defer so that lookahead windows only ever read shared state.
func (e *Engine) Defer(fn EventFunc, a, b any) {
	if !e.deferring {
		fn(a, b)
		return
	}
	e.gopSeq++
	e.gops = append(e.gops, gop{at: e.now, seq: e.gopSeq, fn: fn, a: a, b: b})
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

// pop removes the minimum event, advances the clock to it, and returns
// its callback. The vacated slot is zeroed so the payload words do not
// pin dead objects.
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
	e.now = top.at
	return top.fn, top.a, top.b
}
