package sim

import (
	"fmt"
	"testing"
)

// QueueLen reports the number of jobs waiting (not in service).
func (s *Server) QueueLen() int { return s.qlen }

// InService reports the number of jobs currently being served.
func (s *Server) InService() int { return s.busy }

// Utilization returns mean slot occupancy in [0,1] since construction.
func (s *Server) Utilization(now Time) float64 {
	s.account(now)
	if now == 0 {
		return 0
	}
	return float64(s.BusyTime) / float64(int64(now)*int64(s.width))
}

func TestServerSerializesWidthOne(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	var done []Time
	for i := 0; i < 3; i++ {
		s.Submit(10, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
	if s.Completed != 3 || s.Submitted != 3 {
		t.Fatalf("counters: completed=%d submitted=%d", s.Completed, s.Submitted)
	}
}

func TestServerParallelWidth(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 2)
	var done []Time
	for i := 0; i < 4; i++ {
		s.Submit(10, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
}

func TestServerFIFO(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Submit(Time(1+i%3), func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

func TestServerInterleavedSubmission(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	var done []Time
	e.At(0, func() { s.Submit(100, func() { done = append(done, e.Now()) }) })
	// Arrives while the first job is in service; must wait.
	e.At(50, func() { s.Submit(10, func() { done = append(done, e.Now()) }) })
	// Arrives after the server went idle.
	e.At(200, func() { s.Submit(10, func() { done = append(done, e.Now()) }) })
	e.Run()
	want := []Time{100, 110, 210}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
}

func TestServerUtilization(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	s.Submit(50, nil)
	e.RunUntil(100)
	u := s.Utilization(e.Now())
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestServerZeroServiceTime(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	ran := false
	s.Submit(0, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("zero-service job did not complete")
	}
}

func TestServerQueueLen(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	s.Submit(10, nil)
	s.Submit(10, nil)
	s.Submit(10, nil)
	if s.QueueLen() != 2 || s.InService() != 1 {
		t.Fatalf("queue=%d inservice=%d, want 2/1", s.QueueLen(), s.InService())
	}
	e.Run()
	if s.QueueLen() != 0 || s.InService() != 0 {
		t.Fatalf("queue=%d inservice=%d after drain", s.QueueLen(), s.InService())
	}
}

// shiftServer is Server as it was before the waiting line became a ring:
// a slice whose head is dequeued by shifting every other job down one
// slot. Its submit and completion paths are kept verbatim (job pool and
// all) as the oracle of the differential test; maxQueue is the one
// addition, so the new high-water mark has something to be compared
// with.
type shiftServer struct {
	eng   *Engine
	width int
	busy  int
	queue []*shiftJob
	free  []*shiftJob

	completed  uint64
	submitted  uint64
	busyTime   Time
	lastChange Time
	maxQueue   int
}

type shiftJob struct {
	s       *shiftServer
	service Time
	fn      EventFunc
	a, b    any
}

func (s *shiftServer) account(now Time) {
	s.busyTime += Time(int64(now-s.lastChange) * int64(s.busy))
	s.lastChange = now
}

func (s *shiftServer) SubmitCall(service Time, fn EventFunc, a, b any) {
	s.submitted++
	s.account(s.eng.Now())
	j := s.getJob()
	j.service, j.fn, j.a, j.b = service, fn, a, b
	if s.busy < s.width {
		s.start(j)
		return
	}
	s.queue = append(s.queue, j)
	if len(s.queue) > s.maxQueue {
		s.maxQueue = len(s.queue)
	}
}

func (s *shiftServer) getJob() *shiftJob {
	if n := len(s.free); n > 0 {
		j := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return j
	}
	return &shiftJob{s: s}
}

func (s *shiftServer) start(j *shiftJob) {
	s.busy++
	s.eng.AfterCall(j.service, shiftJobComplete, j, nil)
}

func shiftJobComplete(x, _ any) {
	j := x.(*shiftJob)
	s := j.s
	s.account(s.eng.Now())
	s.busy--
	s.completed++
	fn, a, b := j.fn, j.a, j.b
	j.fn, j.a, j.b = nil, nil, nil
	s.free = append(s.free, j)
	if len(s.queue) > 0 {
		next := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		s.start(next)
	}
	if fn != nil {
		fn(a, b)
	}
}

// serverState is everything a caller can observe of a service centre
// between events.
type serverState struct {
	now                  Time
	queued, inService    int
	completed, submitted uint64
	busyTime             Time
	maxQueue             int
}

func (s *Server) state() serverState {
	return serverState{s.eng.Now(), s.QueueLen(), s.InService(), s.Completed, s.Submitted, s.BusyTime, s.MaxQueue}
}

func (s *shiftServer) state() serverState {
	return serverState{s.eng.Now(), len(s.queue), s.busy, s.completed, s.submitted, s.busyTime, s.maxQueue}
}

// serviceCentre is what a history needs of either implementation.
type serviceCentre interface {
	SubmitCall(service Time, fn EventFunc, a, b any)
	state() serverState
}

type completion struct {
	tag int
	at  Time
}

// history drives one service centre on its own engine from its own
// seeded stream. Two histories with the same seed make the same draws
// for as long as their service centres complete jobs in the same order
// at the same instants, so the first difference shows in done or state.
type history struct {
	eng  *Engine
	srv  serviceCentre
	rng  *RNG
	tag  int
	done []completion
}

func newHistory(seed int64, srv func(*Engine) serviceCentre) *history {
	e := NewEngine()
	return &history{eng: e, srv: srv(e), rng: NewRNG(seed)}
}

// submit enqueues one job; a quarter of them take no time at all.
func (h *history) submit() {
	var service Time
	if h.rng.Intn(4) != 0 {
		service = Time(h.rng.Intn(20)) * Microsecond
	}
	h.tag++
	h.srv.SubmitCall(service, historyDone, h, h.tag)
}

// historyDone records the completion; one in four resubmits from inside
// the callback.
func historyDone(a, b any) {
	h := a.(*history)
	h.done = append(h.done, completion{b.(int), h.eng.Now()})
	if h.rng.Intn(4) == 0 {
		h.submit()
	}
}

// step submits a burst and runs the engine a little further, stopping
// it mid-backlog when the centre is overloaded. Overloaded
// steps offer several times what the centre can serve, with the odd
// burst of hundreds; the others let it drain.
func (h *history) step(overload bool) {
	burst, span := h.rng.Intn(2), 300
	if overload {
		burst, span = h.rng.Intn(12), 30
		if h.rng.Intn(32) == 0 {
			burst += 500
		}
	}
	for i := 0; i < burst; i++ {
		h.submit()
	}
	h.eng.RunUntil(h.eng.Now() + Time(h.rng.Intn(span))*Microsecond)
}

// TestServerDifferentialAgainstShift runs seeded histories — zero and
// random service times, bursts between RunUntil steps that stop the
// engine mid-backlog, callbacks that resubmit, backlogs thousands deep
// that drain to empty and build again — against the slice-shift server. The ring must
// be invisible: same completion order and instants, same counters, same
// queue length and occupancy after every step.
func TestServerDifferentialAgainstShift(t *testing.T) {
	const steps = 3000
	for _, width := range []int{1, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			var ring *Server
			got := newHistory(seed, func(e *Engine) serviceCentre {
				ring = NewServer(e, width)
				return ring
			})
			want := newHistory(seed, func(e *Engine) serviceCentre {
				return &shiftServer{eng: e, width: width}
			})
			name := fmt.Sprintf("width %d seed %d", width, seed)
			checked, empties, deep := 0, 0, false
			compare := func(when string) {
				t.Helper()
				if g, w := got.srv.state(), want.srv.state(); g != w {
					t.Fatalf("%s, %s: state %+v, shift server %+v", name, when, g, w)
				}
				if len(got.done) != len(want.done) {
					t.Fatalf("%s, %s: %d completions, shift server %d", name, when, len(got.done), len(want.done))
				}
				for ; checked < len(got.done); checked++ {
					if got.done[checked] != want.done[checked] {
						t.Fatalf("%s, %s: completion %d is %+v, shift server %+v",
							name, when, checked, got.done[checked], want.done[checked])
					}
				}
			}
			for n := 0; n < steps; n++ {
				overload := n%500 < 100
				got.step(overload)
				want.step(overload)
				compare(fmt.Sprintf("step %d", n))
				if ring.QueueLen() > 1000 {
					deep = true
				} else if deep && ring.QueueLen() == 0 {
					deep = false
					empties++
				}
			}
			got.eng.Run()
			want.eng.Run()
			compare("after the drain")
			if ring.QueueLen() != 0 || ring.InService() != 0 || int(ring.Completed) != got.tag {
				t.Fatalf("%s: drained server holds %d queued, %d in service, completed %d of %d",
					name, ring.QueueLen(), ring.InService(), ring.Completed, got.tag)
			}
			if ring.MaxQueue < 2000 || empties < 3 || len(ring.queue) < 2048 {
				t.Fatalf("%s: history too tame: deepest queue %d, %d deep backlogs drained to empty, ring of %d",
					name, ring.MaxQueue, empties, len(ring.queue))
			}
		}
	}
}

// ringRig tags jobs in submission order and checks they complete in it.
type ringRig struct {
	t         *testing.T
	e         *Engine
	s         *Server
	submitted int
	completed int
}

func newRingRig(t *testing.T) *ringRig {
	e := NewEngine()
	return &ringRig{t: t, e: e, s: NewServer(e, 1)}
}

func (r *ringRig) submit(n int) {
	for i := 0; i < n; i++ {
		r.submitted++
		r.s.SubmitCall(Microsecond, ringDone, r, r.submitted)
	}
}

func ringDone(a, b any) {
	r := a.(*ringRig)
	r.completed++
	if tag := b.(int); tag != r.completed {
		r.t.Fatalf("completion %d is job %d, want FIFO", r.completed, tag)
	}
}

// complete runs exactly n more jobs to completion (service is 1 µs each,
// width 1).
func (r *ringRig) complete(n int) {
	r.t.Helper()
	want := r.completed + n
	r.e.RunUntil(r.e.Now() + Time(n)*Microsecond)
	if r.completed != want {
		r.t.Fatalf("completed %d jobs, want %d", r.completed, want)
	}
}

// fill builds a full ring of exactly capacity slots whose oldest job
// sits in slot head.
func (r *ringRig) fill(capacity, head int) {
	r.t.Helper()
	r.submit(1 + capacity) // one in service, the rest waiting
	r.complete(head)
	r.submit(head)
	if len(r.s.queue) != capacity || r.s.qlen != capacity || r.s.head != head {
		r.t.Fatalf("ring of %d: len %d, %d waiting, head %d; want it full with head %d",
			capacity, len(r.s.queue), r.s.qlen, r.s.head, head)
	}
}

func (r *ringRig) drain() {
	r.t.Helper()
	r.e.Run()
	if r.completed != r.submitted || r.s.QueueLen() != 0 || r.s.InService() != 0 {
		r.t.Fatalf("drain left %d of %d jobs, %d queued, %d in service",
			r.submitted-r.completed, r.submitted, r.s.QueueLen(), r.s.InService())
	}
	for i, j := range r.s.queue {
		if j != nil {
			r.t.Fatalf("drained ring of %d still references a job in slot %d", len(r.s.queue), i)
		}
	}
}

// TestServerRingGrowsFromAnyHead fills a ring of every capacity with
// its oldest job at the first, second, middle and last slot, then
// submits once more: the doubled ring must unroll from head, not from
// slot 0.
func TestServerRingGrowsFromAnyHead(t *testing.T) {
	for capacity := 8; capacity <= 1024; capacity *= 2 {
		for _, head := range []int{0, 1, capacity / 2, capacity - 1} {
			r := newRingRig(t)
			r.fill(capacity, head)
			r.submit(1)
			if len(r.s.queue) != 2*capacity || r.s.head != 0 || r.s.qlen != capacity+1 {
				t.Fatalf("ring of %d grown from head %d: len %d, head %d, %d waiting",
					capacity, head, len(r.s.queue), r.s.head, r.s.qlen)
			}
			if r.s.MaxQueue != capacity+1 {
				t.Fatalf("MaxQueue = %d, want %d", r.s.MaxQueue, capacity+1)
			}
			r.drain()
		}
	}
}

// TestServerRingWrapsAtEveryCapacity keeps a full ring full for three
// laps — one job leaves, one joins — at every capacity from 8 to 1024:
// the ring must not grow, the slot a job leaves must stop referencing
// it, and a ring drained with its head anywhere must refill to capacity
// without growing.
func TestServerRingWrapsAtEveryCapacity(t *testing.T) {
	for capacity := 8; capacity <= 1024; capacity *= 2 {
		r := newRingRig(t)
		r.fill(capacity, 0)
		for i := 0; i < 3*capacity+5; i++ {
			head := r.s.head
			r.complete(1)
			if r.s.queue[head] != nil {
				t.Fatalf("ring of %d: dequeued slot %d still references its job", capacity, head)
			}
			if want := (head + 1) % capacity; r.s.head != want {
				t.Fatalf("ring of %d: head moved %d -> %d, want %d", capacity, head, r.s.head, want)
			}
			r.submit(1)
		}
		r.drain()
		if r.s.head == 0 {
			t.Fatalf("ring of %d: head back at 0, refill would not wrap", capacity)
		}
		r.submit(1 + capacity)
		r.drain()
		if len(r.s.queue) != capacity || r.s.MaxQueue != capacity {
			t.Fatalf("ring of %d grew to %d (MaxQueue %d) without ever holding more than %d",
				capacity, len(r.s.queue), r.s.MaxQueue, capacity)
		}
	}
}

// TestServerRingSurvivesStopMidBacklog stops the engine with RunUntil
// with a wrapped backlog waiting, submits enough to grow the ring while
// stopped, and resumes: nothing is lost, duplicated or reordered.
func TestServerRingSurvivesStopMidBacklog(t *testing.T) {
	r := newRingRig(t)
	r.fill(128, 100)
	stopAt := r.completed + 41
	r.complete(41)
	// Job stopAt+1 went into service before the last callback ran.
	if r.completed != stopAt || r.s.InService() != 1 || r.s.QueueLen() != 128-41 || r.s.head != (100+41)%128 {
		t.Fatalf("stopped after %d of %d: %d in service, %d waiting, head %d",
			r.completed, r.submitted, r.s.InService(), r.s.QueueLen(), r.s.head)
	}
	r.submit(100)
	if len(r.s.queue) != 256 {
		t.Fatalf("ring is %d slots after growing while stopped, want 256", len(r.s.queue))
	}
	r.drain()
}

// TestServerBacklogCostIndependentOfDepth pins the event core's
// property that a job costs the same whatever waits behind it: ns/job
// with 65 536 jobs waiting may not exceed 8x ns/job with 64. A queue
// that touches the whole line per dequeue is hundreds of times over;
// the margin covers -race, a noisy box and the deep line's cache
// misses. A timing test gets three tries.
func TestServerBacklogCostIndependentOfDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks")
	}
	shallow, deep := backlogDepths[0], backlogDepths[len(backlogDepths)-1]
	nsPerJob := func(depth int) float64 {
		res := testing.Benchmark(func(b *testing.B) { benchServerBacklog(b, depth) })
		if res.AllocsPerOp() != 0 {
			t.Fatalf("depth %d: %d allocs/job, want 0", depth, res.AllocsPerOp())
		}
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}
	const bound = 8
	var ratio float64
	for try := 0; try < 3; try++ {
		s, d := nsPerJob(shallow), nsPerJob(deep)
		ratio = d / s
		t.Logf("depth %d: %.1f ns/job, depth %d: %.1f ns/job, ratio %.2f", shallow, s, deep, d, ratio)
		if ratio <= bound {
			return
		}
	}
	t.Fatalf("a job costs %.1fx as much behind %d waiting jobs as behind %d, want <= %dx", ratio, deep, shallow, bound)
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := NewTicker(e, 10, func(now Time) { ticks = append(ticks, now) })
	tk.Start()
	e.RunUntil(35)
	want := []Time{10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = NewTicker(e, 10, func(now Time) {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	tk.Start()
	e.RunUntil(1000)
	if n != 2 {
		t.Fatalf("ticks after stop = %d, want 2", n)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewStream(42, "x"), NewStream(42, "x")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same-seed streams diverge")
		}
	}
	c := NewStream(42, "y")
	same := true
	for i := 0; i < 10; i++ {
		if NewStream(42, "x").Int63() != c.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("differently labelled streams are identical")
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(7)
	var sum Time
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(1000)
	}
	mean := float64(sum) / n
	if mean < 900 || mean > 1100 {
		t.Fatalf("exp mean = %v, want ~1000", mean)
	}
	if r.Exp(0) != 0 {
		t.Fatal("Exp(0) != 0")
	}
}

func TestRNGLogNormalClamps(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.LogNormalInt(8, 2.0, 1, 50)
		if v < 1 || v > 50 {
			t.Fatalf("lognormal out of range: %d", v)
		}
	}
}
