package main

import (
	"encoding/json"
	"fmt"
	"os"
	"syscall"
	"time"
)

// A span is one timed call the benchmark made into a layer's public API.
// Spans are recorded only by this package, from outside the layers; spans
// inside the simulator are a later change.
type span struct {
	ID       int
	Parent   int // 0 = root
	Name     string
	Workload string
	Start    time.Duration // since the recorder's epoch
	End      time.Duration
	CPU      float64 // process CPU seconds consumed inside the span
}

// recorder keeps spans in memory and writes them at exit. It always
// measures (the timed runs need the durations too); Keep decides whether
// the spans are retained for the Chrome trace.
type recorder struct {
	Keep     bool
	Workload string
	epoch    time.Time
	spans    []span
	open     []int // stack of open span indices
	nextID   int
}

func newRecorder(workload string, keep bool) *recorder {
	return &recorder{Keep: keep, Workload: workload, epoch: time.Now()}
}

// cpuSeconds returns user+system CPU time of the whole process, all
// threads, from getrusage.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timing is what a finished span measured.
type timing struct {
	Wall float64 // seconds
	CPU  float64 // process CPU seconds
}

// Span runs fn as a child of the innermost open span and returns its
// wall and CPU time.
func (r *recorder) Span(name string, fn func()) timing {
	r.nextID++
	s := span{ID: r.nextID, Name: name, Workload: r.Workload}
	if n := len(r.open); n > 0 {
		s.Parent = r.spans[r.open[n-1]].ID
	}
	idx := -1
	if r.Keep {
		idx = len(r.spans)
		r.spans = append(r.spans, s)
		r.open = append(r.open, idx)
	}
	cpu0 := cpuSeconds()
	start := time.Since(r.epoch)
	fn()
	end := time.Since(r.epoch)
	cpu := cpuSeconds() - cpu0
	if r.Keep {
		r.open = r.open[:len(r.open)-1]
		r.spans[idx].Start, r.spans[idx].End, r.spans[idx].CPU = start, end, cpu
	}
	return timing{Wall: (end - start).Seconds(), CPU: cpu}
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// readable by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes the retained spans as Chrome-trace JSON.
func (r *recorder) WriteChrome(path string) error {
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload, "cpu_s": s.CPU},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
