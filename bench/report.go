package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
)

// summary is a metric's value over the repetitions of one workload: the
// median of N samples with their quartiles, or, for the two CPU-time
// metrics, the low-sixth estimate (see cpuEstimate) with the quartiles of
// that estimate under resampling of the repetitions.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// lowSixth returns the value one sixth of the way up the sorted samples:
// the second smallest of 5 or 6, the fifth smallest of 24. CPU time on a
// shared machine is the true cost plus interference that is never
// negative and comes in bursts of seconds (a neighbour's burst makes the
// same code take up to 2.7x the CPU time here), so the low end of the
// samples is where the code's own cost is; the very smallest is left out
// because it rewards a sample that happened to skip a GC cycle.
func lowSixth(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) == 0 {
		return 0
	}
	return d[(len(d)+3)/6]
}

// cpuEstimate is the CPU time of one run, given the same run measured in
// several repetitions, each cut into the same slices of simulated time:
// the sum over slices of the low sixth of that slice's samples. A burst
// that inflates one repetition's total only spoils the slices it covers,
// and the other repetitions supply those.
func cpuEstimate(slices [][]float64) float64 {
	if len(slices) == 0 {
		return 0
	}
	total := 0.0
	col := make([]float64, len(slices))
	for i := range slices[0] {
		for r := range slices {
			col[r] = slices[r][i]
		}
		total += lowSixth(col)
	}
	return total
}

// resampled summarises an estimate over repetitions: its value on the
// repetitions as measured, and the quartiles of its values on 200
// resamples of them (with replacement, from a fixed stream, so a result
// file is reproducible from its repetitions).
func resampled(unit string, n int, estimate func(pick []int) float64) summary {
	pick := make([]int, n)
	for i := range pick {
		pick[i] = i
	}
	s := summary{Unit: unit, Median: estimate(pick), N: n}
	rng := rand.New(rand.NewSource(1))
	boot := make([]float64, 200)
	for b := range boot {
		for i := range pick {
			pick[i] = rng.Intn(n)
		}
		boot[b] = estimate(pick)
	}
	s.Q1, _, s.Q3 = quartiles(boot)
	return s
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), so
// the spreads printed here are the ones the driver computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(unit string, values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(values)}
}

// spread is the inter-quartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// workloadResult is one workload's row set in a results file.
type workloadResult struct {
	Name string  `json:"name"`
	Loop string  `json:"loop"`
	Why  string  `json:"why"`
	SimS float64 `json:"sim_seconds"`
	// MedianRunCPU is the plain median of the repetitions' CPU seconds in
	// the measured window, noise included: what the traced run's single
	// total is compared with.
	MedianRunCPU float64            `json:"median_run_cpu_s"`
	Digest       string             `json:"digest"`
	Sim          simMetrics         `json:"sim"`
	EndToEnd     map[string]summary `json:"end_to_end"`
	PerLayer     layerValues        `json:"per_layer,omitempty"`
}

// resultSet is what a complete benchmark invocation writes and what
// -compare reads.
type resultSet struct {
	Schema     int              `json:"schema"`
	Seed       int64            `json:"seed"`
	Reps       int              `json:"reps"`
	Quick      bool             `json:"quick"`
	NProc      int              `json:"nproc"`
	GoMaxProcs int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go"`
	Workloads  []workloadResult `json:"workloads"`
}

func newResultSet(seed int64, reps int, quick bool) *resultSet {
	return &resultSet{
		Schema: 1, Seed: seed, Reps: reps, Quick: quick,
		NProc: runtime.NumCPU(), GoMaxProcs: childProcs(), GoVersion: runtime.Version(),
	}
}

// childProcs is the GOMAXPROCS every child runs with: load comes from one
// process on at most two threads, never more than the machine has.
func childProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// aggregate checks that the repetitions of one workload agree and folds
// them into its end-to-end rows. Any disagreement or failed check is an
// error: no result is reported for outputs that are not correct.
func aggregate(w *workloadSpec, reps []*repResult) (*workloadResult, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("%s: no repetitions", w.Name)
	}
	first := reps[0]
	var problems []string
	for i, r := range reps {
		for _, f := range r.Failures {
			problems = append(problems, fmt.Sprintf("repetition %d: %s", i, f))
		}
		if r.Sim != first.Sim {
			problems = append(problems, fmt.Sprintf("repetition %d: simulated metrics differ from repetition 0: %+v vs %+v", i, r.Sim, first.Sim))
		}
		if r.Digest != first.Digest {
			problems = append(problems, fmt.Sprintf("repetition %d: digest differs from repetition 0:\n  %s\n  %s", i, r.Digest, first.Digest))
		}
	}
	if first.Sim.Completed == 0 {
		problems = append(problems, "no operation completed")
	}
	if len(problems) > 0 {
		return nil, fmt.Errorf("%s: outputs are not correct:\n  %s", w.Name, strings.Join(problems, "\n  "))
	}

	var allocs, bytes, heap, rss, cpu []float64
	for i, r := range reps {
		if len(r.SliceCPU) != len(first.SliceCPU) || len(r.SetupCPU) != len(first.SetupCPU) {
			return nil, fmt.Errorf("%s: repetition %d measured %d slices and %d set-ups, repetition 0 %d and %d",
				w.Name, i, len(r.SliceCPU), len(r.SetupCPU), len(first.SliceCPU), len(first.SetupCPU))
		}
		allocs = append(allocs, float64(r.Mallocs)/float64(r.Sim.Completed))
		bytes = append(bytes, float64(r.AllocBytes)/float64(r.Sim.Completed))
		heap = append(heap, float64(r.LiveHeap)/(1<<20))
		rss = append(rss, float64(r.PeakRSSKB)/1024)
		cpu = append(cpu, r.RunCPU)
	}
	s := first.Sim
	values := map[string][]float64{
		"allocs_per_op": allocs, "alloc_bytes_per_op": bytes, "live_heap_mb": heap, "peak_rss_mb": rss,
		"sim_ops_per_s": {s.OpsPerS}, "sim_p50_ms": {s.P50Ms}, "sim_p99_ms": {s.P99Ms}, "sim_p999_ms": {s.P999Ms},
		"sim_hit_rate": {s.HitRate}, "completed_frac": {s.CompleteFrac},
	}
	out := &workloadResult{
		Name: w.Name, Loop: w.Loop, Why: w.Why, SimS: first.SimS, Digest: first.Digest, Sim: s,
		EndToEnd: map[string]summary{},
	}
	_, out.MedianRunCPU, _ = quartiles(cpu)
	out.EndToEnd["setup_s"] = resampled("s", len(reps), func(pick []int) float64 {
		var samples []float64
		for _, r := range pick {
			samples = append(samples, reps[r].SetupCPU...)
		}
		return lowSixth(samples)
	})
	out.EndToEnd["cpu_per_sim_s"] = resampled("s/s", len(reps), func(pick []int) float64 {
		slices := make([][]float64, len(pick))
		for i, r := range pick {
			slices[i] = reps[r].SliceCPU
		}
		return cpuEstimate(slices) / first.SimS
	})
	for _, m := range endToEnd {
		if v, ok := values[m.Name]; ok {
			out.EndToEnd[m.Name] = summarize(m.Unit, v)
		}
	}
	return out, nil
}

// printEndToEnd prints every end-to-end metric of one workload by name.
func printEndToEnd(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n%s  (%s; %.0f simulated s; %d latency samples)\n", r.Name, r.Loop, r.SimS, r.Sim.LatSamples)
	fmt.Fprintf(w, "  %-22s %14s %-9s %14s %14s %3s\n", "end-to-end metric", "value", "unit", "q1", "q3", "n")
	for _, m := range endToEnd {
		s := r.EndToEnd[m.Name]
		fmt.Fprintf(w, "  %-22s %14.6g %-9s %14.6g %14.6g %3d\n", m.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
}

// printPerLayer prints the per-layer table of one workload's traced run.
func printPerLayer(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n%s per-layer (traced run)\n", r.Name)
	for _, m := range perLayer {
		v, ok := r.PerLayer[m.Name]
		switch {
		case !ok:
			continue
		case v == nil:
			fmt.Fprintf(w, "  %-42s %14s %s\n", m.Name, "null", m.Unit)
		default:
			fmt.Fprintf(w, "  %-42s %14.6g %s\n", m.Name, *v, m.Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rs.Schema != 1 {
		return nil, fmt.Errorf("%s: results schema %d, this build reads 1", path, rs.Schema)
	}
	return &rs, nil
}
