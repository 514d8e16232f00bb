package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineScheduleDispatch measures raw event throughput: the
// simulator's capacity bound for large experiments.
func BenchmarkEngineScheduleDispatch(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkServerPipeline measures a saturated FIFO service centre.
func BenchmarkServerPipeline(b *testing.B) {
	e := NewEngine()
	s := NewServer(e, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Submit(10, nil)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// backlogRig keeps a service centre at a steady depth: every completion
// submits one more job until left runs out.
type backlogRig struct {
	e    *Engine
	s    *Server
	left int
}

func backlogStep(a, _ any) {
	r := a.(*backlogRig)
	r.left--
	if r.left <= 0 {
		r.e.Stop()
		return
	}
	r.s.SubmitCall(Microsecond, backlogStep, r, nil)
}

func benchServerBacklog(b *testing.B, depth int) {
	e := NewEngine()
	r := &backlogRig{e: e, s: NewServer(e, 1), left: b.N}
	for i := 0; i <= depth; i++ { // one in service, depth waiting
		r.s.SubmitCall(Microsecond, backlogStep, r, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

var backlogDepths = []int{64, 4096, 65536}

// BenchmarkServerBacklog measures one completion (dequeue, start the
// next job, callback, enqueue) with depth jobs waiting throughout.
func BenchmarkServerBacklog(b *testing.B) {
	for _, depth := range backlogDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) { benchServerBacklog(b, depth) })
	}
}

func BenchmarkRNGExp(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(Millisecond)
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	r := NewRNG(1)
	z := r.NewZipf(1.2, 100000)
	for i := 0; i < b.N; i++ {
		_ = z.Draw()
	}
}
