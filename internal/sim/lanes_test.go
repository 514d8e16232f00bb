package sim

import (
	"sort"
	"testing"
)

// pending counts the events an engine holds, in the heap and the lanes.
func pending(e *Engine) int {
	n := len(e.q)
	for i := range e.lanes[:e.nlanes] {
		n += e.lanes[i].n
	}
	return n
}

// NextEventTime returns the timestamp of the engine's earliest pending
// event; ok is false when the queue is empty.
func (e *Engine) NextEventTime() (t Time, ok bool) {
	_, t, ok = e.earliest()
	if !ok {
		return 0, false
	}
	return t, true
}

// orderQueue is what the order tests drive: the engine, or the reference.
type orderQueue interface {
	Now() Time
	AtCall(t Time, fn EventFunc, a, b any)
	AfterCall(d Time, fn EventFunc, a, b any)
	Run()
	RunUntil(end Time)
	Stop()
	NextEventTime() (Time, bool)
}

// refQueue is the reference the engine's dispatch order is held to: all
// pending events in one slice sorted by (at, seq), dispatched from the
// front. It shares no code with the engine's heap or lanes.
type refQueue struct {
	now     Time
	seq     uint64
	stopped bool
	q       []event
}

func (r *refQueue) Now() Time { return r.now }

func (r *refQueue) AtCall(t Time, fn EventFunc, a, b any) {
	if t < r.now {
		panic("reference: event scheduled in the past")
	}
	r.seq++
	// The new seq is the largest yet: the event goes after every event
	// due at or before t.
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > t })
	r.q = append(r.q, event{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = event{at: t, seq: r.seq, fn: fn, a: a, b: b}
}

func (r *refQueue) AfterCall(d Time, fn EventFunc, a, b any) { r.AtCall(r.now+d, fn, a, b) }

func (r *refQueue) Stop() { r.stopped = true }

func (r *refQueue) run(due func(Time) bool) {
	r.stopped = false
	for !r.stopped && len(r.q) > 0 && due(r.q[0].at) {
		ev := r.q[0]
		r.q = r.q[1:]
		r.now = ev.at
		ev.fn(ev.a, ev.b)
	}
}

func (r *refQueue) advance(end Time) {
	if !r.stopped && r.now < end {
		r.now = end
	}
}

func (r *refQueue) Run() { r.run(func(Time) bool { return true }) }

func (r *refQueue) RunUntil(end Time) {
	r.run(func(t Time) bool { return t <= end })
	r.advance(end)
}

func (r *refQueue) NextEventTime() (Time, bool) {
	if len(r.q) == 0 {
		return 0, false
	}
	return r.q[0].at, true
}

// recurring are the order programs' lane-bound delays. Every delay the
// programs draw is a multiple of 50 µs often enough that lane events and
// heap events share instants.
var recurring = []Time{0, 50, 100, 200, 300, 1000}

// fired is one dispatch: which event, at what instant.
type fired struct {
	id int
	at Time
}

// orderRun is one queue running an order program. Each event's choices
// — how many events it schedules, with which delays, whether it stops
// the queue — are a function of the seed and its id alone, so two
// queues make the same choices as long as they dispatch in one order.
type orderRun struct {
	q      orderQueue
	seed   uint64
	ids    int
	budget int // events callbacks may still schedule
	log    []fired
	stops  int
	inLane map[int]bool // the engine's events that went to a lane
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// schedule adds one event whose delay x chooses.
func (r *orderRun) schedule(x uint64) {
	r.ids++
	id, now, c := r.ids, r.q.Now(), x>>8
	e, _ := r.q.(*Engine)
	var heaped int
	if e != nil {
		heaped = len(e.q)
	}
	switch x % 8 {
	case 0, 1, 2, 3:
		r.q.AfterCall(recurring[c%uint64(len(recurring))], orderFire, r, id)
	case 4: // an absolute time a recurring delay away
		r.q.AtCall(now+recurring[c%uint64(len(recurring))], orderFire, r, id)
	case 5: // a wide range on the 50 µs grid
		r.q.AfterCall(Time(c%400)*50, orderFire, r, id)
	case 6: // a wide range, any microsecond
		r.q.AfterCall(Time(c%100_000), orderFire, r, id)
	default:
		r.q.AtCall(now+Time(c%20_000), orderFire, r, id)
	}
	if e != nil && len(e.q) == heaped {
		r.inLane[id] = true
	}
}

func orderFire(a, b any) {
	r, id := a.(*orderRun), b.(int)
	r.log = append(r.log, fired{id, r.q.Now()})
	h := mix(r.seed ^ uint64(id))
	for k := h % 3; k > 0 && r.budget > 0; k-- {
		r.budget--
		h = mix(h)
		r.schedule(h)
	}
	if h>>40%128 == 0 {
		r.stops++
		r.q.Stop()
	}
}

// orderCoverage is what a set of programs exercised on the engine side.
type orderCoverage struct {
	events, laneEvents, ties, stops, exactCuts int
	maxLanes                                   int
}

// runOrderProgram drives the engine and the reference through one
// program and fails at the first step where their dispatch logs, clocks,
// next event times or pending counts differ. Each program byte pair is
// an op and its argument: schedule a burst, run to a bound (some
// exactly at the next event), run to empty.
// Callbacks schedule at most budget events between them.
func runOrderProgram(t *testing.T, seed uint64, prog []byte, budget int) orderCoverage {
	t.Helper()
	eng := NewEngine()
	got := &orderRun{q: eng, seed: seed, budget: budget, inLane: map[int]bool{}}
	want := &orderRun{q: &refQueue{}, seed: seed, budget: budget, inLane: map[int]bool{}}
	var cov orderCoverage
	checked := 0
	compare := func(step int, op string) {
		t.Helper()
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d step %d (%s): %d events dispatched, reference %d", seed, step, op, len(got.log), len(want.log))
		}
		for ; checked < len(got.log); checked++ {
			if got.log[checked] != want.log[checked] {
				t.Fatalf("seed %d step %d (%s): dispatch %d is %+v, reference %+v",
					seed, step, op, checked, got.log[checked], want.log[checked])
			}
		}
		if eng.Now() != want.q.Now() {
			t.Fatalf("seed %d step %d (%s): now %v, reference %v", seed, step, op, eng.Now(), want.q.Now())
		}
		gt, gok := eng.NextEventTime()
		wt, wok := want.q.NextEventTime()
		if gt != wt || gok != wok {
			t.Fatalf("seed %d step %d (%s): next event (%v, %v), reference (%v, %v)", seed, step, op, gt, gok, wt, wok)
		}
		if p, w := pending(eng), len(want.q.(*refQueue).q); p != w {
			t.Fatalf("seed %d step %d (%s): %d pending, reference %d", seed, step, op, p, w)
		}
		cov.maxLanes = max(cov.maxLanes, eng.nlanes)
	}
	both := func(f func(r *orderRun)) { f(got); f(want) }
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step], Time(prog[step+1])
		var name string
		switch op % 8 {
		case 0, 1, 2:
			name = "schedule"
			both(func(r *orderRun) {
				for j := uint64(0); j <= uint64(arg%8); j++ {
					r.schedule(mix(seed ^ uint64(step)<<8 ^ j))
				}
			})
		case 3, 4:
			name = "RunUntil"
			end := eng.Now() + arg*25
			both(func(r *orderRun) { r.q.RunUntil(end) })
		case 5, 6:
			next, ok := eng.NextEventTime()
			if !ok {
				continue
			}
			cov.exactCuts++
			name = "RunUntil at the next event"
			both(func(r *orderRun) { r.q.RunUntil(next) })
		default:
			name = "Run"
			both(func(r *orderRun) { r.q.Run() })
		}
		compare(step, name)
	}
	for pending(eng) > 0 || len(want.q.(*refQueue).q) > 0 { // a callback may stop a drain short
		both(func(r *orderRun) { r.q.Run() })
		compare(len(prog), "drain")
	}
	cov.events, cov.stops = len(got.log), got.stops
	for i, f := range got.log {
		if got.inLane[f.id] {
			cov.laneEvents++
		}
		if i > 0 && got.log[i-1].at == f.at && got.inLane[got.log[i-1].id] != got.inLane[f.id] {
			cov.ties++
		}
	}
	return cov
}

// TestEngineLanesMatchReference runs seeded order programs through the
// engine and the sorted-slice reference: recurring and wide delays,
// AfterCall and AtCall, absolute times a lane's delay away, same-instant
// ties between lane and heap events, callbacks that schedule and stop,
// and cut points at and between events. The lanes must be invisible.
func TestEngineLanesMatchReference(t *testing.T) {
	var total orderCoverage
	for seed := int64(1); seed <= 8; seed++ {
		rng := NewRNG(seed)
		prog := make([]byte, 1200)
		rng.Read(prog)
		cov := runOrderProgram(t, uint64(seed), prog, 30_000)
		total.events += cov.events
		total.laneEvents += cov.laneEvents
		total.ties += cov.ties
		total.stops += cov.stops
		total.exactCuts += cov.exactCuts
		total.maxLanes = max(total.maxLanes, cov.maxLanes)
	}
	t.Logf("engine side: %+v", total)
	if total.maxLanes < len(recurring) || total.laneEvents*4 < total.events || total.laneEvents*4 > 3*total.events ||
		total.ties < 100 || total.stops < 20 || total.exactCuts < 100 {
		t.Fatalf("programs too tame: %+v", total)
	}
}

// FuzzEngineOrder holds the engine's dispatch order to the reference's
// for any program.
func FuzzEngineOrder(f *testing.F) {
	f.Add(uint64(1), []byte{0, 7, 1, 3, 3, 200, 4, 90, 5, 0, 6, 0, 7, 0})
	f.Add(uint64(2), []byte{2, 7, 2, 7, 2, 7, 4, 255, 3, 255, 7, 0})
	f.Fuzz(func(t *testing.T, seed uint64, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		runOrderProgram(t, seed, prog, 4000)
	})
}

// mixRig replays the delay mix of a hotspot run: requests that hop
// client → MDS (200 µs), queue for the CPU (300 µs), now and then
// forward within the cluster (50 µs) to a peer that serves or logs
// (100 µs), and reply; each client's next arrival an exponential draw
// later; a 1 ms wheel tick, a 1 s ticker, and one-off timers of 8, 16
// and 48 s.
type mixRig struct {
	e   *Engine
	rng *RNG
}

func mixHop(a, b any) {
	r, stage := a.(*mixRig), b.(int)
	switch {
	case stage == 0:
		r.e.AfterCall(200, mixHop, r, 1)
	case stage == 1:
		r.e.AfterCall(300, mixHop, r, 2)
	case stage == 2 && r.rng.Intn(4) == 0:
		r.e.AfterCall(50, mixHop, r, 3)
	case stage == 3:
		r.e.AfterCall(100, mixHop, r, 4)
	case stage == 4:
		r.e.AfterCall(50, mixHop, r, 5)
	case stage == 2, stage == 5:
		r.e.AfterCall(200, mixHop, r, 6)
	default:
		r.e.AfterCall(r.rng.Exp(20*Millisecond), mixHop, r, 0)
	}
}

func mixTick(a, b any) {
	r, period := a.(*mixRig), b.(Time)
	r.e.AfterCall(period, mixTick, r, period)
}

// TestLanePolicyHotspotMix pins the promotion rule on a hotspot-shaped
// mix: every short fixed delay gets a lane within the run's first
// second, no one-off or exponential delay gets one, and the count never
// passes the cap.
func TestLanePolicyHotspotMix(t *testing.T) {
	short := []Time{50, 100, 200, 300, Millisecond}
	for seed := int64(1); seed <= 3; seed++ {
		e := NewEngine()
		r := &mixRig{e: e, rng: NewRNG(seed)}
		for c := 0; c < 200; c++ {
			e.AfterCall(r.rng.Exp(20*Millisecond), mixHop, r, 0)
		}
		e.AfterCall(Millisecond, mixTick, r, Millisecond)
		e.AfterCall(Second, mixTick, r, Second)
		for _, d := range []Time{8 * Second, 16 * Second, 48 * Second} {
			e.AfterCall(d, func(a, b any) {}, nil, nil)
		}
		for now := Time(0); now < 3*Second; now += Millisecond {
			e.RunUntil(now)
			if e.nlanes > maxLanes {
				t.Fatalf("seed %d: %d lanes at %v, cap %d", seed, e.nlanes, now, maxLanes)
			}
			if now == Second {
				for _, d := range short {
					if !hasLane(e, d) {
						t.Fatalf("seed %d: delay %v has no lane after 1 s; lanes %v", seed, d, laneDelaysOf(e))
					}
				}
			}
		}
		for _, d := range laneDelaysOf(e) {
			if d != Second && !containsTime(short, d) {
				t.Fatalf("seed %d: delay %v took a lane; lanes %v", seed, d, laneDelaysOf(e))
			}
		}
	}
}

func hasLane(e *Engine, d Time) bool { return containsTime(laneDelaysOf(e), d) }

func laneDelaysOf(e *Engine) []Time {
	var ds []Time
	for _, s := range e.seen {
		if s.lane != 0 {
			ds = append(ds, s.d)
		}
	}
	return ds
}

func containsTime(ts []Time, t Time) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// pingPong keeps a fixed number of events each rescheduling itself one
// constant delay later.
func pingPong(a, b any) {
	e := a.(*Engine)
	e.AfterCall(100*Microsecond, pingPong, e, nil)
}

// pipelineStep resubmits to its server on every completion.
func pipelineStep(a, b any) {
	s := a.(*Server)
	s.SubmitCall(300*Microsecond, pipelineStep, s, nil)
}

// TestLaneDispatchAllocFree pins the lanes' steady state: once the
// rings have grown, dispatching constant-delay events — a ping-pong, a
// saturated server pipeline — allocates nothing, and every event rides a
// lane.
func TestLaneDispatchAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(e *Engine)
	}{
		{"ping-pong", func(e *Engine) {
			for i := 0; i < 64; i++ {
				e.AfterCall(Time(i), pingPong, e, nil)
			}
		}},
		{"server pipeline", func(e *Engine) {
			s := NewServer(e, 2)
			for i := 0; i < 64; i++ {
				s.SubmitCall(300*Microsecond, pipelineStep, s, nil)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			tc.start(e)
			e.RunUntil(100 * Millisecond) // warm up: promote, grow the rings
			if e.nlanes == 0 || len(e.q) != 0 {
				t.Fatalf("after warm-up: %d lanes, %d events in the heap; want every event in a lane", e.nlanes, len(e.q))
			}
			allocs := testing.AllocsPerRun(200, func() {
				e.RunUntil(e.Now() + 10*Millisecond)
			})
			if allocs > 0 {
				t.Fatalf("lane dispatch allocated %.2f times per 10 ms, want 0", allocs)
			}
			if len(e.q) != 0 {
				t.Fatalf("%d events in the heap, want all in lanes", len(e.q))
			}
		})
	}
}
