package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func quickOpts(t *testing.T) repOptions {
	return repOptions{Quick: true, OutDir: t.TempDir(), SetupSamples: 1}
}

func val(t *testing.T, l layerValues, name string) float64 {
	t.Helper()
	v, ok := l[name]
	if !ok || v == nil {
		t.Fatalf("%s: not measured (present %v)", name, ok)
	}
	return *v
}

// Every workload, run twice in this process at -quick scale, must pass its
// own correctness checks and repeat its simulated results and digest bit
// for bit; and each must exercise the layers it was chosen for.
func TestWorkloadsRepeatExactly(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			a, err := runRepetition(w, 7, quickOpts(t))
			if err != nil {
				t.Fatal(err)
			}
			b, err := runRepetition(w, 7, quickOpts(t))
			if err != nil {
				t.Fatal(err)
			}
			wr, err := aggregate(w, []*repResult{a, b})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range endToEnd {
				s, ok := wr.EndToEnd[m.Name]
				if !ok || s.N == 0 || s.Unit != m.Unit {
					t.Errorf("%s: missing or malformed summary %+v", m.Name, s)
				}
				if m.Name != "completed_frac" && !(s.Median > 0) {
					t.Errorf("%s: median %v, want > 0", m.Name, s.Median)
				}
			}
			if a.Sim.Issued != a.Sim.Completed+a.Sim.TimedOut+a.Sim.InFlight {
				t.Errorf("issued %d != completed %d + timed out %d + in flight %d", a.Sim.Issued, a.Sim.Completed, a.Sim.TimedOut, a.Sim.InFlight)
			}

			l := a.Layers
			leased := w.Name == "hotspot-both"
			if got := l["lease.hits"]; (got != nil) != leased {
				t.Errorf("lease.hits = %v, want a value only on hotspot-both", got)
			} else if leased && *got == 0 {
				t.Errorf("lease.hits = 0 on hotspot-both")
			}
			aging := w.Name == "aging-churn"
			// The closed-loop generator unlinks too, so fig2-closed tombstones
			// its overlay as well; the two population workloads never unlink.
			if got := val(t, l, "namespace.tombstones"); (got > 0) != (aging || w.Name == "fig2-closed") {
				t.Errorf("namespace.tombstones = %v, want > 0 only on aging-churn and fig2-closed", got)
			}
			if got := l["snap.bytes"]; (got != nil && *got > 0) != aging {
				t.Errorf("snap.bytes = %v, want > 0 only on aging-churn", got)
			}
			if aging && a.RestoreDigest != a.Digest {
				t.Errorf("restored digest %q != run digest %q", a.RestoreDigest, a.Digest)
			}
			if got := l["client.population.bytes_per_client"]; (got == nil) != (w.Name == "fig2-closed") {
				t.Errorf("client.population.bytes_per_client = %v, want null only on fig2-closed", got)
			}

			// Another seed gives other inputs.
			c, err := runRepetition(w, 8, quickOpts(t))
			if err != nil {
				t.Fatal(err)
			}
			if c.Digest == a.Digest {
				t.Errorf("seeds 7 and 8 produced the same digest %q", a.Digest)
			}
		})
	}
}

// A traced run writes its spans and profile, folds the profile into shares
// that sum to 1, and leaves the simulated results untouched.
func TestTracedRun(t *testing.T) {
	w := workloadByName("aging-churn")
	opt := quickOpts(t)
	plain, err := runRepetition(w, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Traced = true
	tr, err := runRepetition(w, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Sim != plain.Sim || tr.Digest != plain.Digest {
		t.Errorf("tracing changed the simulated results:\n  %s\n  %s", tr.Digest, plain.Digest)
	}
	sum := 0.0
	for _, layer := range profileLayers {
		sum += val(t, tr.Layers, layer+".cpu_share")
	}
	if math.Abs(sum-1) > 0.001 {
		t.Errorf("profile shares sum to %v, want 1", sum)
	}
	data, err := os.ReadFile(filepath.Join(opt.OutDir, "trace-aging-churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		names[e.Name] = true
		if e.Args["workload"] != "aging-churn" {
			t.Errorf("span %s has workload %v", e.Name, e.Args["workload"])
		}
	}
	for _, want := range []string{"setup", "cluster.New", "run", "cluster.RunTo", "cluster.Quiesce", "chaos.Fsck", "cluster.CheckpointTo", "cluster.RestoreCheckpoint"} {
		if !names[want] {
			t.Errorf("trace has no %q span; spans: %v", want, names)
		}
	}
	if got := val(t, tr.Layers, "trace.spans"); int(got) != len(trace.TraceEvents) {
		t.Errorf("trace.spans = %v, file holds %d", got, len(trace.TraceEvents))
	}
	if entries, _ := filepath.Glob(filepath.Join(opt.OutDir, "ck-*")); len(entries) != 0 {
		t.Errorf("checkpoint scratch left behind: %v", entries)
	}

	// With the kernels merged in, no per-layer metric may be missing
	// except the two only a parent process can fill.
	kern, err := runKernels(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		_, inRun := tr.Layers[m.Name]
		_, inKernels := kern[m.Name]
		if !inRun && !inKernels && m.Name != "trace.overhead_frac" && !strings.HasPrefix(m.Name, "sim.shard.") {
			t.Errorf("per-layer metric %s is measured nowhere", m.Name)
		}
	}
}

// The checks must fail when outputs are wrong: a run that is not drained
// still has messages and requests in flight, repetitions that disagree are
// not a result, and the command exits non-zero.
func TestIncorrectOutputsAreRejected(t *testing.T) {
	w := workloadByName("fig2-closed")
	rec := newRecorder(w.Name, false)
	b, err := setUp(rec, w.Config(5, true))
	if err != nil {
		t.Fatal(err)
	}
	end := b.c.Run()
	undrained := &repResult{}
	checkConservation(undrained, b.c, end)
	if len(undrained.Failures) == 0 {
		t.Error("conservation check passed on a cluster with requests still in flight")
	}

	good, err := runRepetition(w, 5, quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aggregate(w, []*repResult{good, good}); err != nil {
		t.Fatalf("identical repetitions rejected: %v", err)
	}
	for name, spoil := range map[string]func(r *repResult){
		"digest":     func(r *repResult) { r.Digest += "x" },
		"sim metric": func(r *repResult) { r.Sim.P99Ms *= 1.0001 },
		"failure":    func(r *repResult) { r.failf("fabric request: sent 2 != delivered 1 + dropped 0") },
		"no ops":     func(r *repResult) { r.Sim.Completed = 0 },
	} {
		bad := *good
		spoil(&bad)
		if _, err := aggregate(w, []*repResult{good, &bad}); err == nil {
			t.Errorf("%s: aggregate accepted repetitions that disagree or failed a check", name)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-workload", "no-such-workload"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown workload: exit code %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed run printed a result: %q", stdout.String())
	}
}

// pbuf builds protobuf messages for the profile tests.
type pbuf struct{ b []byte }

func (p *pbuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pbuf) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func packed(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// handMadeProfile encodes stacks (leaf first) with weights as a
// profile.proto, one location per function, compressed like pprof's.
func handMadeProfile(t *testing.T, stacks [][]string, weights []uint64) []byte {
	t.Helper()
	strs := []string{""}
	ids := map[string]uint64{}
	var prof pbuf
	for i, stack := range stacks {
		var locs []uint64
		for _, fn := range stack {
			if ids[fn] == 0 {
				strs = append(strs, fn)
				ids[fn] = uint64(len(strs) - 1) // function id = location id = string index
			}
			locs = append(locs, ids[fn])
		}
		var s pbuf
		s.bytes(1, packed(locs...))
		s.bytes(2, packed(1, weights[i])) // samples/count, cpu/nanoseconds
		prof.bytes(2, s.b)
	}
	for _, id := range ids {
		var line, loc, fn pbuf
		line.varint(1, id)
		line.varint(2, 42)
		loc.varint(1, id)
		loc.bytes(4, line.b)
		prof.bytes(4, loc.b)
		fn.varint(1, id)
		fn.varint(2, id)
		prof.bytes(5, fn.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestFoldProfile(t *testing.T) {
	raw := handMadeProfile(t, [][]string{
		{"dynmds/internal/sim.(*Engine).pop", "dynmds/internal/sim.(*Engine).RunUntil", "dynmds/internal/cluster.(*Cluster).Run", "main.main"},
		{"runtime.mapaccess1_fast64", "dynmds/internal/cache.(*Cache).Get", "dynmds/internal/mds.(*MDS).serve"},
		{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "dynmds/internal/mds.(*MDS).getReply"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"},
		{"runtime.greyobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.mallocgc", "dynmds/internal/client.(*Client).issue"},
		{"dynmds/internal/osd.(*Pool).Read", "main.main"}, // a package outside the layer list
		{"syscall.Syscall", "main.peakRSSKB"},
		{}, // resolves to no frame
	}, []uint64{40, 20, 10, 10, 5, 5, 5, 5})
	shares, err := foldProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 0.40, "cache": 0.20, "runtime.malloc": 0.10, "runtime.gc": 0.15, "runtime.other": 0.15,
	}
	sum := 0.0
	for layer, share := range shares {
		sum += share
		if math.Abs(share-want[layer]) > 1e-9 {
			t.Errorf("%s share = %v, want %v", layer, share, want[layer])
		}
	}
	if len(shares) != len(want) || math.Abs(sum-1) > 0.001 {
		t.Errorf("shares %v sum to %v, want %v summing to 1", shares, sum, want)
	}

	if _, err := foldProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("a truncated profile folded without error")
	}
	if shares, err := foldProfile(nil); err != nil || shares["runtime.other"] != 1 {
		t.Errorf("empty profile: %v, %v; want all runtime.other", shares, err)
	}

	// A real profile from this process parses and its shares sum to 1.
	var real bytes.Buffer
	if err := pprof.StartCPUProfile(&real); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 60*time.Millisecond; {
		x += math.Sqrt(float64(len(real.Bytes()) + 2))
	}
	pprof.StopCPUProfile()
	shares, err = foldProfile(real.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum = 0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 0.001 {
		t.Errorf("real profile shares sum to %v (%v), x=%v", sum, shares, x)
	}
}

// A burst that inflates part of one repetition must not move the CPU
// estimate: the other repetitions supply those slices.
func TestCPUEstimateRejectsBursts(t *testing.T) {
	const reps, slices = 6, 10
	quiet := make([][]float64, reps)
	for r := range quiet {
		quiet[r] = make([]float64, slices)
		for i := range quiet[r] {
			quiet[r][i] = 1 + 0.001*float64(r) // repetitions differ a little
		}
	}
	base := cpuEstimate(quiet)
	if math.Abs(base-10.01) > 1e-9 {
		t.Fatalf("estimate on quiet repetitions = %v, want 10.01 (the second smallest of each slice)", base)
	}
	for i := 3; i < 7; i++ {
		quiet[0][i] *= 2.7 // a burst over four slices of one repetition
	}
	for i := 0; i < 3; i++ {
		quiet[4][i] *= 2.7 // and another over three slices of another
	}
	if got := cpuEstimate(quiet); math.Abs(got-base) > 0.02 {
		t.Errorf("estimate moved from %v to %v under bursts that a median of totals would have felt", base, got)
	}
	if got := lowSixth([]float64{5, 1, 4, 2, 3}); got != 2 {
		t.Errorf("lowSixth of five = %v, want the second smallest", got)
	}
	if got := lowSixth([]float64{7}); got != 7 {
		t.Errorf("lowSixth of one = %v", got)
	}
	if got := driverReps(15); got != 6 {
		t.Errorf("driverReps(15) = %d, want 6", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

// handMadeSet is a result set with one workload whose every metric has
// median 100 and no spread.
func handMadeSet(seed int64) *resultSet {
	rs := newResultSet(seed, 5, false)
	wr := workloadResult{Name: "fig2-closed", Digest: "d", EndToEnd: map[string]summary{}}
	for _, m := range endToEnd {
		wr.EndToEnd[m.Name] = summary{Unit: m.Unit, Median: 100, Q1: 100, Q3: 100, N: 5}
	}
	rs.Workloads = []workloadResult{wr}
	return rs
}

func TestCompare(t *testing.T) {
	set := func(rs *resultSet, metric string, med, q1, q3 float64) {
		rs.Workloads[0].EndToEnd[metric] = summary{Median: med, Q1: q1, Q3: q3, N: 5}
	}
	verdictOf := func(out, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return "missing"
	}
	cases := []struct {
		name      string
		seedB     int64
		edit      func(b *resultSet)
		metric    string
		verdict   string
		wantWorse bool
	}{
		{"identical", 1, func(*resultSet) {}, "cpu_per_sim_s", verdictSame, false},
		{"within bound", 1, func(b *resultSet) { set(b, "cpu_per_sim_s", 109, 108, 110) }, "cpu_per_sim_s", verdictSame, false},
		{"slower than bound", 1, func(b *resultSet) { set(b, "cpu_per_sim_s", 111, 110, 112) }, "cpu_per_sim_s", verdictWorse, true},
		{"faster than bound", 1, func(b *resultSet) { set(b, "cpu_per_sim_s", 80, 79, 81) }, "cpu_per_sim_s", verdictBetter, false},
		{"another seed, inside the wider bound", 2, func(b *resultSet) { set(b, "cpu_per_sim_s", 120, 119, 121) }, "cpu_per_sim_s", verdictSame, false},
		{"another seed, beyond the wider bound", 2, func(b *resultSet) { set(b, "cpu_per_sim_s", 130, 129, 131) }, "cpu_per_sim_s", verdictWorse, true},
		{"higher is better", 9, func(b *resultSet) { set(b, "sim_ops_per_s", 90, 90, 90) }, "sim_ops_per_s", verdictWorse, true},
		{"too noisy to say", 1, func(b *resultSet) { set(b, "cpu_per_sim_s", 130, 100, 160) }, "cpu_per_sim_s", verdictUnresolved, false},
		{"simulated value moved on one seed", 1, func(b *resultSet) { set(b, "sim_p99_ms", 100.001, 100.001, 100.001) }, "sim_p99_ms", verdictWorse, true},
		{"simulated value on another seed", 2, func(b *resultSet) { set(b, "sim_p99_ms", 100.001, 100.001, 100.001) }, "sim_p99_ms", verdictSame, false},
		{"digest moved", 1, func(b *resultSet) { b.Workloads[0].Digest = "e" }, "digest", verdictWorse, true},
	}
	for _, c := range cases {
		a, b := handMadeSet(1), handMadeSet(c.seedB)
		c.edit(b)
		var out bytes.Buffer
		worse, err := compare(&out, a, b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := verdictOf(out.String(), c.metric); got != c.verdict || worse != c.wantWorse {
			t.Errorf("%s: %s is %q (worse=%v), want %q (worse=%v)\n%s", c.name, c.metric, got, worse, c.verdict, c.wantWorse, out.String())
		}
	}
	b := handMadeSet(1)
	b.Workloads[0].Name = "other"
	if _, err := compare(&bytes.Buffer{}, handMadeSet(1), b); err == nil {
		t.Error("compare accepted result sets with different workloads")
	}
	b = handMadeSet(1)
	b.Reps = 3
	if _, err := compare(&bytes.Buffer{}, handMadeSet(1), b); err == nil {
		t.Error("compare accepted result sets with different repetition counts")
	}

	// Through the command line: files in, exit code out.
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	slow := handMadeSet(1)
	set(slow, "setup_s", 200, 200, 200)
	if err := writeJSON(pa, handMadeSet(1)); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(pb, slow); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-compare", pa, pa}, &stdout, &stderr); code != 0 {
		t.Errorf("comparing a file with itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if code := run(context.Background(), []string{"-compare", pa, pb}, &stdout, &stderr); code != 1 {
		t.Errorf("comparing with a slower set: exit %d, want 1", code)
	}
}

// BENCHMARK.json is the contract other changes are judged by: it must stay
// within the driver's limits and name exactly what this program measures.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil || len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys (%v), want exactly 6", len(keys), err)
	}
	if strings.Join(spec.Command, " ") != "go run ./bench" || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	// 4 + 22 runs per workload, two builds, all inside 3420 s.
	if runs := 4 + 22*len(spec.Workloads); float64(runs)*float64(spec.RunSeconds+12) > 3420-120 {
		t.Errorf("%d runs of %d s (+12 s of set-up, checks and start-up each) do not fit the driver's 3420 s", runs, spec.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if !strings.Contains(w.Why, "open loop") && !strings.Contains(w.Why, "closed loop") {
			t.Errorf("workload %s: why does not say whether the loop is open or closed", w.Name)
		}
	}

	if len(spec.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		checkName(m.Name)
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound == nil || *m.Bound != want.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: malformed unit, direction or bound", m.Name)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}

	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name)
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != nil {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: malformed unit or direction", m.Name)
		}
	}
}
