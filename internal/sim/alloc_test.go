package sim

import (
	"slices"
	"testing"
	"unsafe"
)

// counter is a pointer-shaped event receiver used by the allocation
// tests: passing *counter through the event's `any` payload words must
// not allocate.
type counter struct{ n int }

func bump(a, b any) { a.(*counter).n++ }

// TestScheduleDispatchAllocFree asserts the tentpole property: once the
// heap slice has grown to its high-water mark, a schedule+dispatch cycle
// with a typed callback performs zero allocations (the ISSUE budget is
// ≤1 alloc/event; the engine achieves 0).
func TestScheduleDispatchAllocFree(t *testing.T) {
	e := NewEngine()
	c := &counter{}
	// Warm up: grow the heap slice past anything the measurement uses.
	for i := 0; i < 4096; i++ {
		e.AfterCall(Time(i%64), bump, c, nil)
	}
	e.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			e.AfterCall(Time(i), bump, c, nil)
		}
		e.Run()
	})
	if allocs > 0 {
		t.Fatalf("schedule+dispatch allocated %.2f times per 32 events, want 0", allocs)
	}
	if c.n == 0 {
		t.Fatal("callbacks never ran")
	}
}

// TestServerSubmitAllocFree asserts the same for the FIFO service
// centre: pooled jobs make a steady-state submit+complete cycle
// allocation-free.
func TestServerSubmitAllocFree(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 2)
	c := &counter{}
	for i := 0; i < 1024; i++ {
		s.SubmitCall(Microsecond, bump, c, nil)
	}
	e.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			s.SubmitCall(Microsecond, bump, c, nil)
		}
		e.Run()
	})
	if allocs > 0 {
		t.Fatalf("submit+complete allocated %.2f times per 16 jobs, want 0", allocs)
	}
}

// TestStopLeavesQueueAndPoolsIntact exercises the pool contract of a
// run stopped short: RunUntil halts dispatch without draining the
// queue, so events (and the pooled jobs they reference) still pending
// at its bound must survive — they are released to free lists only by
// the dispatch that consumes them. Run afterwards resumes exactly where
// it left off, every callback fires exactly once, and submission order
// is preserved throughout.
func TestStopLeavesQueueAndPoolsIntact(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	var order []int
	record := func(a, b any) { order = append(order, a.(*counter).n) }

	tags := make([]*counter, 8)
	for i := range tags {
		tags[i] = &counter{n: i}
	}
	// First batch; the run stops once the second job completes.
	for _, tag := range tags[:4] {
		s.SubmitCall(Millisecond, record, tag, nil)
	}
	e.RunUntil(2 * Millisecond)

	if len(order) != 2 {
		t.Fatalf("ran %d callbacks before the stop, want 2 (order %v)", len(order), order)
	}
	if pending(e) == 0 && s.QueueLen() == 0 && s.InService() == 0 {
		t.Fatal("the stop drained all pending work; it must leave the queue intact")
	}

	// More submissions while stopped: these must queue behind the
	// survivors, and pooled jobs recycled by completed dispatches must
	// not alias the still-pending ones.
	s.SubmitCall(Millisecond, record, tags[4], nil)
	s.SubmitCall(Millisecond, record, tags[5], nil)
	e.Run()

	want := []int{0, 1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if pending(e) != 0 || s.QueueLen() != 0 {
		t.Fatalf("work left behind: %d events, %d queued jobs", pending(e), s.QueueLen())
	}
}

// BenchmarkEngineSchedule measures pure scheduling cost: push b.N events
// without dispatching (drained once outside the timer).
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	c := &counter{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterCall(Time(i%1000), bump, c, nil)
		if i%4096 == 4095 {
			b.StopTimer()
			e.Run()
			b.StartTimer()
		}
	}
	b.StopTimer()
	e.Run()
}

// BenchmarkEngineRun measures a full schedule+dispatch cycle with typed
// callbacks and reports end-to-end event throughput.
func BenchmarkEngineRun(b *testing.B) {
	e := NewEngine()
	c := &counter{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterCall(Time(i%1000), bump, c, nil)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
	b.ReportMetric(float64(e.Executed)/b.Elapsed().Seconds(), "events/sec")
}

// TestPoolAllocsBlocks: a pool's blocks double from 1 to poolBlockMax
// objects and then stay at poolBlockMax, objects of one block are
// adjacent, and a pool never Put to hands out no object twice and none
// dirty, however many are taken. Once objects are Put back, Get returns
// the most recently Put first, and the lent count follows both.
func TestPoolAllocsBlocks(t *testing.T) {
	type obj struct {
		n int
		p *obj
	}
	var p Pool[obj]
	seen := map[*obj]bool{}
	var blocks []int
	var prev *obj
	for i := 0; i < 2000; i++ {
		fresh := len(p.block) == 0
		o := p.Get()
		switch {
		case seen[o]:
			t.Fatalf("object %d was handed out before", i)
		case *o != obj{}:
			t.Fatalf("object %d is not zeroed: %+v", i, *o)
		case fresh:
			blocks = append(blocks, p.size)
		case o != &unsafe.Slice(prev, 2)[1]:
			t.Fatalf("object %d does not follow object %d in its block", i, i-1)
		}
		seen[o] = true
		o.n, o.p, prev = i+1, prev, o
	}
	want := []int{1, 2, 4, 8, 16, 32}
	for len(want) < len(blocks) {
		want = append(want, poolBlockMax)
	}
	if !slices.Equal(blocks, want) {
		t.Fatalf("block sizes %v, want %v", blocks, want)
	}
	// The objects keep what was written into them.
	for o := prev; o != nil; o = o.p {
		if !seen[o] || o.n == 0 {
			t.Fatalf("object %d was overwritten", o.n)
		}
	}
	if p.Lent() != 2000 {
		t.Fatalf("lent %d, want 2000", p.Lent())
	}

	// LIFO: the last object Put comes back first, as Put left it.
	a, b := prev, prev.p
	p.Put(b)
	p.Put(a)
	if p.Lent() != 1998 {
		t.Fatalf("lent %d after two Puts, want 1998", p.Lent())
	}
	if got := p.Get(); got != a || got.n != 2000 {
		t.Fatalf("Get after Put returned object %d, want the last Put (2000)", got.n)
	}
	if got := p.Get(); got != b {
		t.Fatalf("second Get returned object %d, want %d", got.n, b.n)
	}
	if got := p.Get(); seen[got] {
		t.Fatalf("Get with nothing Put handed out object %d again", got.n)
	}
	if p.Lent() != 2001 {
		t.Fatalf("lent %d, want 2001", p.Lent())
	}
}

// TestServerBacklogAllocsBlocks: with its ring and free list warm, a
// server whose pool is empty builds a 10 000-job backlog from fresh blocks,
// one malloc per block of jobs: the six blocks of 1 to 32 jobs, then
// blocks of 64.
func TestServerBacklogAllocsBlocks(t *testing.T) {
	const backlog = 10000
	e := NewEngine()
	s := NewServer(e, 1)
	c := &counter{}
	build := func() {
		clear(s.pool.free)
		s.pool = Pool[job]{free: s.pool.free[:0]}
		for i := 0; i < backlog; i++ {
			s.SubmitCall(Microsecond, bump, c, nil)
		}
		if s.MaxQueue != backlog-1 {
			t.Fatalf("deepest line %d, want %d", s.MaxQueue, backlog-1)
		}
		e.Run()
	}
	// The runtime's own allocations only add: take the least of three.
	allocs := testing.AllocsPerRun(1, build)
	for try := 0; try < 2; try++ {
		allocs = min(allocs, testing.AllocsPerRun(1, build))
	}
	if limit := backlog/poolBlockMax + 7; allocs > float64(limit) {
		t.Fatalf("a %d-job backlog took %.0f mallocs, want at most %d", backlog, allocs, limit)
	}
	if c.n != 6*backlog {
		t.Fatalf("%d of %d jobs ran", c.n, 6*backlog)
	}
}
