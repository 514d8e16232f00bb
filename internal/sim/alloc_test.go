package sim

import "testing"

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

// TestStopLeavesQueueAndPoolsIntact exercises the Stop/pool contract:
// Stop halts dispatch without draining the queue, so events (and the
// pooled jobs they reference) still pending at Stop must survive — they
// are released to free lists only by the dispatch that consumes them.
// Run after Stop resumes exactly where it left off, every callback fires
// exactly once, and submission order is preserved throughout.
func TestStopLeavesQueueAndPoolsIntact(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	var order []int
	record := func(a, b any) { order = append(order, a.(*counter).n) }

	tags := make([]*counter, 8)
	for i := range tags {
		tags[i] = &counter{n: i}
	}
	// First batch; the second job stops the engine mid-run.
	s.SubmitCall(Millisecond, record, tags[0], nil)
	s.SubmitCall(Millisecond, func(a, b any) {
		record(a, b)
		e.Stop()
	}, tags[1], nil)
	s.SubmitCall(Millisecond, record, tags[2], nil)
	s.SubmitCall(Millisecond, record, tags[3], nil)
	e.Run()

	if len(order) != 2 {
		t.Fatalf("ran %d callbacks before Stop, want 2 (order %v)", len(order), order)
	}
	if pending(e) == 0 && s.QueueLen() == 0 && s.InService() == 0 {
		t.Fatal("Stop drained all pending work; it must leave the queue intact")
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
