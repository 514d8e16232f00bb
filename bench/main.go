// Command bench is the repository's benchmark: four reference workloads,
// twelve end-to-end metrics and a per-layer ledger, measured from outside
// the simulator through its public API. See README.md in this directory.
//
//	go run ./bench                      all workloads, -reps repetitions each, tables and bench/out/results-seed<N>.json
//	go run ./bench -compare A.json B.json
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	reps     int
	quick    bool
	outDir   string
	compare  bool

	// Child-only flags: the parent re-executes itself with these.
	child  string
	setups int
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and end with one JSON result line")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is made from")
	fs.IntVar(&o.seconds, "seconds", 15, "with -workload: how long to measure; sets the number of repetitions (six per 15 s)")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	fs.IntVar(&o.reps, "reps", 5, "repetitions per workload, each in a fresh process")
	fs.BoolVar(&o.quick, "quick", false, "tiny simulated durations (what the tests run); results are not comparable with full runs")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for results, traces and scratch files")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare A.json B.json")
	fs.StringVar(&o.child, "child", "", "internal: run one measurement in this process (rep, shard, kernels)")
	fs.IntVar(&o.setups, "setups", 1, "internal: set-up samples of a child repetition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.child != "":
		err = runChild(o, stdout)
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		var worse bool
		if worse, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			return 1
		}
	case o.workload != "":
		err = runDriver(ctx, o, stdout)
	default:
		err = runAll(ctx, o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	return compare(w, a, b)
}

// runChild performs one measurement in this process and prints it as one
// JSON document.
func runChild(o options, stdout io.Writer) error {
	var v any
	var err error
	switch o.child {
	case "rep":
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		v, err = runRepetition(w, o.seed, repOptions{
			Quick: o.quick, Traced: o.trace == 1, OutDir: o.outDir, SetupSamples: o.setups,
		})
	case "shard":
		v, err = runShardPair(o.seed, o.quick, o.outDir)
	case "kernels":
		v, err = runKernels(o.seed)
	default:
		return fmt.Errorf("unknown child kind %q", o.child)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(v)
}

// childTimeout bounds one child process; the longest, a traced
// repetition on a loaded machine, takes a fraction of it.
const childTimeout = 150 * time.Second

// spawn re-executes this binary for one measurement, waits for it and
// decodes what it printed. The child inherits stderr; a child that fails,
// hangs past childTimeout or is interrupted is killed and reaped.
func spawn(ctx context.Context, o options, kind string, into any, extra ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	args := []string{"-child", kind, "-seed", strconv.FormatInt(o.seed, 10), "-out", o.outDir}
	if o.quick {
		args = append(args, "-quick")
	}
	args = append(args, extra...)
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %s %v: %w", kind, extra, err)
	}
	if err := json.Unmarshal(out, into); err != nil {
		return fmt.Errorf("child %s %v: decoding its result: %w", kind, extra, err)
	}
	return nil
}

func spawnRep(ctx context.Context, o options, w *workloadSpec, setups int, traced bool) (*repResult, error) {
	extra := []string{"-workload", w.Name, "-setups", strconv.Itoa(setups)}
	if traced {
		extra = append(extra, "-trace", "1")
	}
	var r repResult
	if err := spawn(ctx, o, "rep", &r, extra...); err != nil {
		return nil, err
	}
	return &r, nil
}

// setupSamples is how many times each timed repetition measures set-up.
const setupSamples = 4

// tracedLayers runs the traced repetition of one workload and merges in
// the kernels and, on fig2-closed, the K=2 row. ref is a timed result of
// the same workload and seed: tracing must not change a simulated value,
// and the CPU it adds is trace.overhead_frac.
func tracedLayers(ctx context.Context, o options, w *workloadSpec, ref *workloadResult, kern layerValues) (layerValues, error) {
	tr, err := spawnRep(ctx, o, w, 1, true)
	if err != nil {
		return nil, err
	}
	if _, err := aggregate(w, []*repResult{tr}); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if tr.Sim != ref.Sim || tr.Digest != ref.Digest {
		return nil, fmt.Errorf("%s: the traced run's simulated results differ from the timed runs':\n  %s\n  %s", w.Name, tr.Digest, ref.Digest)
	}
	l := tr.Layers
	for k, v := range kern {
		l[k] = v
	}
	l.set("trace.overhead_frac", tr.RunCPU/ref.MedianRunCPU-1)

	shardNames := []string{"sim.shard.k2_wall_speedup", "sim.shard.k2_cpu_ratio", "sim.shard.k2_windows", "sim.shard.k2_ops_drift"}
	if w.Name == "fig2-closed" && runtime.NumCPU() >= 2 {
		var sh layerValues
		if err := spawn(ctx, o, "shard", &sh); err != nil {
			return nil, err
		}
		for k, v := range sh {
			l[k] = v
		}
	} else {
		for _, n := range shardNames {
			l.null(n)
		}
	}
	for _, m := range perLayer {
		if _, ok := l[m.Name]; !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s was not measured", w.Name, m.Name)
		}
	}
	return l, nil
}

// runAll is the complete benchmark: every workload, o.reps repetitions
// each in a fresh process, workloads interleaved round-robin so that a
// noisy minute is spread over all of them; then one traced run each.
func runAll(ctx context.Context, o options, stdout io.Writer) error {
	if o.reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	reps := make([][]*repResult, len(workloads))
	for rep := 0; rep < o.reps; rep++ {
		for i := range workloads {
			start := time.Now()
			r, err := spawnRep(ctx, o, &workloads[i], setupSamples, false)
			if err != nil {
				return err
			}
			reps[i] = append(reps[i], r)
			fmt.Fprintf(stdout, "rep %d/%d %-13s %6.2f CPU-s run, %5.1f s wall in all\n",
				rep+1, o.reps, r.Workload, r.RunCPU, time.Since(start).Seconds())
		}
	}
	rs := newResultSet(o.seed, o.reps, o.quick)
	for i := range workloads {
		wr, err := aggregate(&workloads[i], reps[i])
		if err != nil {
			return err
		}
		rs.Workloads = append(rs.Workloads, *wr)
	}
	var kern layerValues
	if err := spawn(ctx, o, "kernels", &kern); err != nil {
		return err
	}
	for i := range workloads {
		l, err := tracedLayers(ctx, o, &workloads[i], &rs.Workloads[i], kern)
		if err != nil {
			return err
		}
		rs.Workloads[i].PerLayer = l
	}
	fmt.Fprintf(stdout, "\nseed %d, %d repetitions, nproc %d, GOMAXPROCS %d, %s\n", rs.Seed, rs.Reps, rs.NProc, rs.GoMaxProcs, rs.GoVersion)
	for i := range rs.Workloads {
		printEndToEnd(stdout, &rs.Workloads[i])
	}
	for i := range rs.Workloads {
		printPerLayer(stdout, &rs.Workloads[i])
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("creating output directory: %w", err)
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("results-seed%d.json", o.seed))
	if err := writeJSON(path, rs); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", path)
	return nil
}

// driverReps is how many repetitions a driver run of --seconds makes: six
// for the 15 seconds BENCHMARK.json asks for, which is about what they
// take on the 2-core box. The count is fixed by --seconds and not by a
// clock, because the low-sixth estimate of CPU time is an order statistic
// and moves with the number of samples.
func driverReps(seconds int) int {
	n := (seconds*6 + 7) / 15
	if n < 3 {
		n = 3
	}
	if n > 12 {
		n = 12
	}
	return n
}

// resultLine is the last line of a driver run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver measures one workload for the driver: timed repetitions in
// fresh processes (--trace 0) or one traced run beside one timed one
// (--trace 1), then one JSON object as the last line of standard output.
func runDriver(ctx context.Context, o options, stdout io.Writer) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	var reps []*repResult
	wantReps, setups := driverReps(o.seconds), setupSamples
	if o.trace == 1 {
		wantReps, setups = 1, 1
	}
	for len(reps) < wantReps {
		r, err := spawnRep(ctx, o, w, setups, false)
		if err != nil {
			return err
		}
		reps = append(reps, r)
	}
	wr, err := aggregate(w, reps)
	if err != nil {
		return err
	}
	line := resultLine{
		Correct:   true,
		Attempted: wr.Sim.Issued,
		Failed:    wr.Sim.TimedOut + wr.Sim.Dropped,
		Metrics:   map[string]metricValue{},
	}
	if o.trace == 0 {
		printEndToEnd(stdout, wr)
		for _, m := range endToEnd {
			line.Metrics[m.Name] = metricValue{Value: wr.EndToEnd[m.Name].Median, Unit: m.Unit}
		}
	} else {
		var kern layerValues
		if err := spawn(ctx, o, "kernels", &kern); err != nil {
			return err
		}
		if wr.PerLayer, err = tracedLayers(ctx, o, w, wr, kern); err != nil {
			return err
		}
		printPerLayer(stdout, wr)
		for _, m := range perLayer {
			mv := metricValue{Unit: m.Unit}
			// The result line carries numbers only: a layer that does
			// not exist on this workload reads 0 there, null above.
			if v := wr.PerLayer[m.Name]; v != nil && !math.IsNaN(*v) && !math.IsInf(*v, 0) {
				mv.Value = *v
			}
			line.Metrics[m.Name] = mv
		}
	}
	fmt.Fprintln(stdout)
	return json.NewEncoder(stdout).Encode(line)
}
