package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dynmds/internal/cluster"
	"dynmds/internal/endure"
	"dynmds/internal/fsgen"
	"dynmds/internal/metrics"
	"dynmds/internal/net"
	"dynmds/internal/sim"
)

// repOptions selects what one repetition does beyond the measured run.
type repOptions struct {
	Quick bool
	// Traced keeps spans, records a CPU profile and writes both to OutDir.
	Traced bool
	// OutDir receives trace files and the checkpoint scratch directory.
	OutDir string
	// SetupSamples is how many times set-up is measured; 1 is the set-up
	// of the measured run alone.
	SetupSamples int
	// Shards runs the sharded executor (the K=2 row); 0 is serial.
	Shards int
	// SimScale shortens the simulated duration (the K=2 row runs a quarter
	// of fig2-closed on both engines); 0 means 1.
	SimScale float64
}

// runSlices is how many slices of simulated time the measured window of a
// Cluster.Run workload is cut into (aging-churn cuts at its own steps).
const runSlices = 20

// simMetrics are the simulated results of a run. For a fixed seed they
// must repeat exactly, bit for bit, on every repetition and after any
// change that only speeds the simulator up.
type simMetrics struct {
	OpsPerS      float64 `json:"sim_ops_per_s"`
	P50Ms        float64 `json:"sim_p50_ms"`
	P99Ms        float64 `json:"sim_p99_ms"`
	P999Ms       float64 `json:"sim_p999_ms"`
	HitRate      float64 `json:"sim_hit_rate"`
	CompleteFrac float64 `json:"completed_frac"`
	LatSamples   uint64  `json:"latency_samples"`
	Issued       uint64  `json:"issued"`
	Completed    uint64  `json:"completed"`
	TimedOut     uint64  `json:"timed_out"`
	InFlight     uint64  `json:"in_flight_at_end"`
	Dropped      uint64  `json:"dropped"`
}

// repResult is what one repetition reports.
type repResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Shards   int     `json:"shards"`
	Windows  uint64  `json:"windows"` // lookahead windows executed; 0 when serial
	SimS     float64 `json:"sim_seconds"`

	SetupCPU   []float64 `json:"setup_cpu_s"` // one per set-up sample
	RunCPU     float64   `json:"run_cpu_s"`
	SliceCPU   []float64 `json:"slice_cpu_s"` // RunCPU cut at fixed simulated instants
	RunWall    float64   `json:"run_wall_s"`
	Mallocs    uint64    `json:"mallocs"`
	AllocBytes uint64    `json:"alloc_bytes"`
	LiveHeap   uint64    `json:"live_heap_bytes"`
	PeakRSSKB  int64     `json:"peak_rss_kb"`

	Sim    simMetrics `json:"sim"`
	Digest string     `json:"digest"`
	// RestoreDigest is the digest of the run restored from a checkpoint
	// (aging-churn only); it must equal Digest.
	RestoreDigest string `json:"restore_digest,omitempty"`
	// Failures lists every correctness check this repetition failed.
	Failures []string `json:"failures,omitempty"`
	// Layers holds the per-layer values measured in this repetition:
	// counters and spans always, profile shares when traced. A nil value
	// means the layer does not exist on this workload.
	Layers layerValues `json:"layers"`
}

func (r *repResult) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// built is a runnable cluster plus what set-up measured on the way.
type built struct {
	c      *cluster.Cluster
	frozen *fsgen.FrozenSnapshot
	cfg    cluster.Config
	gen    timing
	mk     timing
}

// setUp is the work behind setup_s, from a configuration to a runnable
// cluster: generate and freeze the namespace, then build the cluster over
// it (New thaws its own overlay).
func setUp(rec *recorder, cfg cluster.Config) (*built, error) {
	b := &built{}
	var err error
	b.gen = rec.Span("fsgen.GenerateFrozen", func() { b.frozen, err = fsgen.GenerateFrozen(cfg.FS) })
	if err != nil {
		return nil, fmt.Errorf("generating namespace: %w", err)
	}
	cfg.Snapshot = b.frozen
	b.cfg = cfg
	b.mk = rec.Span("cluster.New", func() { b.c, err = cluster.New(cfg) })
	if err != nil {
		return nil, fmt.Errorf("building cluster: %w", err)
	}
	return b, nil
}

// runRepetition builds one workload, runs it once with the measurements
// around it, checks the outputs and returns everything it saw.
func runRepetition(w *workloadSpec, seed int64, opt repOptions) (*repResult, error) {
	cfg := w.Config(seed, opt.Quick)
	cfg.Shards = opt.Shards
	if opt.SimScale > 0 {
		cfg.Duration = sim.Time(float64(cfg.Duration) * opt.SimScale)
		cfg.Warmup = sim.Time(float64(cfg.Warmup) * opt.SimScale)
	}
	var every sim.Time
	if w.Every != nil {
		every = w.Every(opt.Quick)
		eo := endure.Options{Cluster: cfg, Every: every}
		if err := eo.Normalize(); err != nil {
			return nil, err
		}
		cfg = eo.Cluster
	}
	res := &repResult{
		Workload: w.Name, Seed: seed, Traced: opt.Traced, Shards: opt.Shards,
		SimS: cfg.Duration.Seconds(), Layers: layerValues{},
	}
	rec := newRecorder(w.Name, opt.Traced)

	var b *built
	var err error
	setup := rec.Span("setup", func() { b, err = setUp(rec, cfg) })
	if err != nil {
		return nil, err
	}
	res.SetupCPU = append(res.SetupCPU, setup.CPU)

	// The measured window: event loop only, tracing of allocations by
	// MemStats deltas. One GC first so the window starts from a settled
	// heap and the set-up's garbage is not charged to the run.
	runtime.GC()
	var prof bytes.Buffer
	if opt.Traced {
		// The profile covers the measured window and nothing else, so its
		// shares are shares of cpu_per_sim_s.
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var out *runOutput
	var marks []float64 // process CPU seconds at each slice boundary
	mark := func() { marks = append(marks, cpuSeconds()) }
	run := rec.Span("run", func() {
		mark()
		if w.Every != nil {
			out, err = runAging(rec, b, every, opt.OutDir, mark)
		} else {
			// Cluster.Run cannot be advanced in steps from outside, so the
			// boundaries are events of our own on the cluster's engine:
			// they read the clock and touch nothing the simulation sees.
			for i := 1; i < runSlices; i++ {
				b.c.Eng.At(cfg.Duration*sim.Time(i)/runSlices, mark)
			}
			out = &runOutput{hooks: runSlices - 1}
			t := rec.Span("cluster.Run", func() { out.res = b.c.Run() })
			out.loopWall, out.loopCPU = t.Wall, t.CPU
		}
		mark()
	})
	runtime.ReadMemStats(&m1)
	if opt.Traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	res.RunCPU, res.RunWall = run.CPU, run.Wall
	for i := 1; i < len(marks); i++ {
		res.SliceCPU = append(res.SliceCPU, marks[i]-marks[i-1])
	}
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc

	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	res.LiveHeap = m2.HeapAlloc
	res.PeakRSSKB = peakRSSKB()

	collect := rec.Span("cluster.Collect", func() { out.res = b.c.Collect() })
	fillSim(res, b.c, out.res)
	res.Digest = endure.Digest(out.res)
	res.Failures = append(res.Failures, out.failures...)

	// Layer values: spans, then public counters read after the run.
	l := res.Layers
	l.set("fsgen.inodes", float64(b.frozen.Base.NumInodes()))
	l.set("cluster.new_s", b.mk.CPU)
	l.set("cluster.run_wall_s", out.loopWall)
	l.set("cluster.run_cpu_s", out.loopCPU)
	l.set("cluster.collect_s", collect.CPU)
	l.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	l.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	readCounters(l, b.c, out.res, res.RunCPU, out.hooks)
	res.Windows = b.c.Windows()

	// New thaws internally, where no span of ours can reach, so time one
	// more overlay over the same base on its own.
	thaw := rec.Span("fsgen.Thaw", func() { _ = b.frozen.Thaw() })
	l.set("fsgen.thaw_s", thaw.CPU)
	l.set("fsgen.generate_s", b.gen.CPU)
	l.set("fsgen.generate.ns_per_inode", b.gen.CPU*1e9/float64(b.frozen.Base.NumInodes()))
	if b.c.Pop != nil {
		clients := float64(b.c.Pop.Clients())
		l.set("client.population.setup_ns_per_client", (b.mk.CPU-thaw.CPU)*1e9/clients)
		l.set("client.population.bytes_per_client", float64(out.res.PopFootprint)/clients)
	} else {
		l.null("client.population.setup_ns_per_client")
		l.null("client.population.bytes_per_client")
	}

	// Drain and check conservation. Aging runs end quiesced and were
	// checked by simfsck at the final checkpoint; the others still have
	// requests in flight when the clock stops.
	rec.Span("check", func() {
		if w.Every == nil {
			b.c.Drain()
		}
		checkConservation(res, b.c, out.res)
	})
	if w.Every != nil {
		rec.Span("restore", func() { err = restoreAging(rec, res, b, out, every) })
		if err != nil {
			return nil, err
		}
		out.cleanup()
	}
	out.layers(l)

	// Further set-up samples, each on a dropped cluster and a collected
	// heap, so that setup_s is not judged on one cold sample.
	b = nil
	out = nil
	for i := 1; i < opt.SetupSamples; i++ {
		runtime.GC()
		t := rec.Span("setup", func() { _, err = setUp(rec, cfg) })
		if err != nil {
			return nil, err
		}
		res.SetupCPU = append(res.SetupCPU, t.CPU)
	}

	if rec.Keep {
		if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
			return nil, fmt.Errorf("creating output directory: %w", err)
		}
		base := filepath.Join(opt.OutDir, "trace-"+w.Name)
		if err := rec.WriteChrome(base + ".json"); err != nil {
			return nil, err
		}
		if err := os.WriteFile(base+".pprof", prof.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("writing profile: %w", err)
		}
		shares, err := foldProfile(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("folding CPU profile: %w", err)
		}
		for _, layer := range profileLayers {
			l.set(layer+".cpu_share", shares[layer])
		}
		l.set("trace.spans", float64(len(rec.spans)))
	}
	return res, nil
}

// fillSim derives the simulated metrics from the public result and the
// cluster's latency histogram.
func fillSim(res *repResult, c *cluster.Cluster, r *cluster.Result) {
	s := &res.Sim
	s.Issued, s.Completed, s.TimedOut = r.Issued, r.Completed, r.TimedOut
	s.InFlight = r.Issued - r.Completed - r.TimedOut
	s.Dropped = r.Net.Dropped
	if r.Window > 0 {
		s.OpsPerS = float64(r.MeasuredOps) / r.Window.Seconds()
	}
	s.HitRate = r.HitRate
	if r.Issued > 0 {
		s.CompleteFrac = float64(r.Completed) / float64(r.Issued)
	}
	s.LatSamples = c.LatH.N()
	s.P50Ms = quantileMs(c.LatH, 0.5)
	s.P99Ms = quantileMs(c.LatH, 0.99)
	s.P999Ms = quantileMs(c.LatH, 0.999)
}

// quantileMs interpolates the q-quantile inside its histogram bucket, in
// simulated milliseconds. Result.LatencyP50/P99/P999 are the bucket's
// upper bound, which moves in steps of 6% (or of 2x on the closed-loop
// path): a real shift smaller than a step would not show, and a seed that
// straddles a bucket edge would look like noise. The bucket bounds come
// from the histogram's own Quantile on a one-sample scratch copy.
func quantileMs(h *metrics.LatHist, q float64) float64 {
	rank := q * float64(h.N())
	var cum uint64
	result, found := 0.0, false
	h.State(func(idx int, count uint64) { // visits buckets in ascending order
		if found {
			return
		}
		if float64(cum+count) < rank {
			cum += count
			return
		}
		found = true
		hi := bucketTop(idx)
		lo := 0.0
		if idx > 0 {
			lo = bucketTop(idx-1) + 1
		}
		frac := (rank - float64(cum)) / float64(count)
		result = (lo + frac*(hi+1-lo)) / 1e3 // sim.Time is microseconds
	})
	return result
}

func bucketTop(idx int) float64 {
	var one metrics.LatHist
	one.SetBucket(idx, 1)
	return float64(one.Quantile(1))
}

// checkConservation verifies, on a drained cluster, that no message and
// no operation was lost: per class sent = delivered + dropped with
// nothing in flight, and issued = completed + timed out, the requests in
// flight at the end of the run having all resolved without a new one
// being issued.
func checkConservation(res *repResult, c *cluster.Cluster, end *cluster.Result) {
	if n := c.Fab.InFlight(); n != 0 {
		res.failf("fabric: %d messages in flight after the drain", n)
	}
	for k := 0; k < net.NumClasses; k++ {
		cs := c.Fab.Class(net.Class(k))
		if cs.Sent != cs.Delivered+cs.Dropped {
			res.failf("fabric %s: sent %d != delivered %d + dropped %d", net.Class(k), cs.Sent, cs.Delivered, cs.Dropped)
		}
	}
	if err := c.DrainCheck(); err != nil {
		res.failf("ops: %v", err)
	}
	after := c.Collect()
	if after.Issued != end.Issued {
		res.failf("ops: %d issued at the end of the run, %d after the drain", end.Issued, after.Issued)
	}
	if after.Issued != after.Completed+after.TimedOut {
		res.failf("ops: issued %d != completed %d + timed out %d", after.Issued, after.Completed, after.TimedOut)
	}
	res.Sim.TimedOut = after.TimedOut
	res.Sim.Dropped = after.Net.Dropped
}

// peakRSSKB reads VmHWM, the process's peak resident set, in KiB.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64) // malformed reads as 0, reported as such
				return kb
			}
		}
	}
	return 0
}
