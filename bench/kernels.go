package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dynmds/internal/cache"
	"dynmds/internal/fsgen"
	"dynmds/internal/lease"
	"dynmds/internal/metrics"
	"dynmds/internal/namespace"
	"dynmds/internal/net"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/storage"
	"dynmds/internal/workload"
)

// Layer kernels: each drives one layer's public API alone, on a fixed
// synthetic input derived from the seed, and reports time per operation.
// They say what a layer costs in isolation, warm and with nothing else in
// the CPU caches, so they bound from below what the same layer costs
// inside a run; the profile shares say what it costs there.

// kernelRuns is how many times each kernel body is timed; the median is
// reported.
const kernelRuns = 3

// A kernel prepares its input and returns the body to time and the
// number of operations one call of the body performs.
type kernel struct {
	Name  string
	Scale float64 // multiplies ns/op into the metric's unit
	Prep  func(in *kernelInput) (body func(), ops int)
}

// kernelInput is the synthetic input shared by the kernels: a generated
// namespace (frozen, and one thawed overlay) and its files in walk order.
type kernelInput struct {
	rng    *rand.Rand
	frozen *fsgen.FrozenSnapshot
	snap   *fsgen.Snapshot
	files  []*namespace.Inode
	paths  []string
}

func newKernelInput(seed int64) (*kernelInput, error) {
	frozen, err := fsgen.GenerateFrozen(baseFS(60))
	if err != nil {
		return nil, fmt.Errorf("kernel namespace: %w", err)
	}
	in := &kernelInput{rng: rand.New(rand.NewSource(seed)), frozen: frozen, snap: frozen.Thaw()}
	in.snap.Tree.Walk(func(n *namespace.Inode) bool {
		if !n.IsDir() {
			in.files = append(in.files, n)
		}
		return true
	})
	in.rng.Shuffle(len(in.files), func(i, j int) { in.files[i], in.files[j] = in.files[j], in.files[i] })
	for _, f := range in.files[:4096] {
		in.paths = append(in.paths, f.Path())
	}
	return in, nil
}

func noop(_, _ any) {}

var kernels = []kernel{
	{Name: "sim.heap.ns_per_event", Prep: func(in *kernelInput) (func(), int) {
		// 100k events pending at all times: each firing schedules its
		// successor, as a closed-loop client's think timer does.
		const pending, ops = 100_000, 400_000
		eng := sim.NewEngine()
		delays := make([]sim.Time, 1<<12)
		for i := range delays {
			delays[i] = sim.Time(1 + in.rng.Intn(10_000))
		}
		var fired int
		var fire sim.EventFunc
		fire = func(_, _ any) {
			fired++
			eng.AfterCall(delays[fired&(len(delays)-1)], fire, nil, nil)
		}
		for i := 0; i < pending; i++ {
			eng.AfterCall(delays[i&(len(delays)-1)], fire, nil, nil)
		}
		return func() {
			for target := fired + ops; fired < target; {
				eng.RunUntil(eng.Now() + 100)
			}
		}, ops
	}},
	{Name: "sim.wheel.ns_per_timer", Prep: func(in *kernelInput) (func(), int) {
		// 1M armed ids, re-armed on firing at a mean of 1000 ticks: the
		// open-loop population's arrival path without the population.
		const ids, ops = 1_000_000, 500_000
		eng := sim.NewEngine()
		delays := make([]sim.Time, 1<<12)
		for i := range delays {
			delays[i] = sim.Time(1+in.rng.Intn(2000)) * sim.Millisecond
		}
		var fired int
		var w *sim.Wheel
		w = sim.NewWheel(eng, sim.Millisecond, ids, func(id int32) {
			fired++
			w.Schedule(id, delays[fired&(len(delays)-1)])
		})
		for i := 0; i < ids; i++ {
			w.Schedule(int32(i), delays[i&(len(delays)-1)])
		}
		w.Start()
		return func() {
			for target := fired + ops; fired < target; {
				eng.RunUntil(eng.Now() + sim.Millisecond)
			}
		}, ops
	}},
	{Name: "sim.server.ns_per_job", Prep: func(in *kernelInput) (func(), int) {
		const ops = 200_000
		eng := sim.NewEngine()
		srv := sim.NewServer(eng, 1)
		return func() {
			for i := 0; i < ops; i++ {
				srv.SubmitCall(300*sim.Microsecond, noop, nil, nil)
				if i&63 == 63 {
					eng.Run()
				}
			}
			eng.Run()
		}, ops
	}},
	{Name: "workload.tenant_draw.ns", Prep: func(in *kernelInput) (func(), int) {
		const clients, ops = 100_000, 1_000_000
		t := workload.NewTenants(workload.TenantConfig{TenantSkew: 1, FileSkew: 1}, clients, in.snap.Homes, 1)
		words := make([]uint64, 1<<12)
		for i := range words {
			words[i] = in.rng.Uint64()
		}
		var sink *namespace.Inode
		return func() {
			for i := 0; i < ops; i++ {
				u := words[i&(len(words)-1)]
				sink = t.File(t.ClientTenant(int(u%clients)), u, words[(i+1)&(len(words)-1)])
			}
			_ = sink
		}, ops
	}},
	{Name: "net.fabric.ns_per_msg", Prep: func(in *kernelInput) (func(), int) {
		const ops = 400_000
		eng := sim.NewEngine()
		fab := net.NewFabric(eng, 8, net.Fixed{Net: 200 * sim.Microsecond, Fwd: 50 * sim.Microsecond})
		return func() {
			for i := 0; i < ops; i++ {
				fab.Send(net.Forward, i&7, (i+3)&7, net.Bytes(net.Forward), noop, nil, nil)
				if i&63 == 63 {
					eng.Run()
				}
			}
			eng.Run()
		}, ops
	}},
	{Name: "cache.get_hit.ns", Prep: func(in *kernelInput) (func(), int) {
		const ops = 2_000_000
		c := cache.New(1 << 20) // everything fits: every Get is a hit
		ids := make([]namespace.InodeID, 2048)
		for i := range ids {
			f := in.files[i]
			if _, err := c.InsertPath(f, cache.Auth, false); err != nil {
				panic(err) // a generated tree always has its ancestors
			}
			ids[i] = f.ID
		}
		return func() {
			for i := 0; i < ops; i++ {
				c.Get(ids[i&(len(ids)-1)])
			}
		}, ops
	}},
	{Name: "cache.insert_evict.ns", Prep: func(in *kernelInput) (func(), int) {
		// A cache far smaller than the set of files inserted: each
		// InsertPath beyond capacity evicts, as on open-wide's miss path.
		c := cache.New(2500)
		files := in.files
		pos := 0
		ops := 200_000
		return func() {
			for i := 0; i < ops; i++ {
				if _, err := c.InsertPath(files[pos], cache.Auth, false); err != nil {
					panic(err)
				}
				if pos++; pos == len(files) {
					pos = 0
				}
			}
		}, ops
	}},
	{Name: "partition.authority.ns", Prep: func(in *kernelInput) (func(), int) {
		const ops = 2_000_000
		s := partition.NewStaticSubtree(8, in.snap.Tree, 2)
		files := in.files[:4096]
		sink := 0
		return func() {
			for i := 0; i < ops; i++ {
				sink += s.Authority(files[i&4095])
			}
			_ = sink
		}, ops
	}},
	{Name: "storage.log_append.ns", Prep: func(in *kernelInput) (func(), int) {
		const ops = 200_000
		eng := sim.NewEngine()
		st := storage.New(eng, storage.DefaultConfig(2500))
		files := in.files[:8192]
		return func() {
			for i := 0; i < ops; i++ {
				st.CommitCall(files[i&8191].ID, noop, nil, nil)
				if i&63 == 63 {
					eng.Run()
				}
			}
			eng.Run()
		}, ops
	}},
	{Name: "namespace.lookup.ns", Prep: func(in *kernelInput) (func(), int) {
		const ops = 200_000
		tree := in.snap.Tree
		return func() {
			for i := 0; i < ops; i++ {
				if _, err := tree.Lookup(in.paths[i&4095]); err != nil {
					panic(err)
				}
			}
		}, ops
	}},
	{Name: "namespace.create_unlink.ns", Prep: func(in *kernelInput) (func(), int) {
		// One create and one unlink of a base file per operation pair, on
		// a private overlay: the tombstone path of aging-churn.
		const perRun = 5_000
		tree := in.frozen.Thaw().Tree
		var victims []*namespace.Inode
		tree.Walk(func(n *namespace.Inode) bool {
			if !n.IsDir() && len(victims) < kernelRuns*perRun {
				victims = append(victims, n)
			}
			return true
		})
		names := make([]string, len(victims))
		for i := range names {
			names[i] = fmt.Sprintf("k%06d", i)
		}
		next := 0
		return func() {
			for i := 0; i < perRun; i++ {
				v := victims[next]
				dir := v.Parent()
				if err := tree.Remove(v); err != nil {
					panic(err)
				}
				if _, err := tree.Create(dir, names[next]); err != nil {
					panic(err)
				}
				next++
			}
		}, 2 * perRun
	}},
	{Name: "namespace.overlay_new.us", Scale: 1e-3, Prep: func(in *kernelInput) (func(), int) {
		const ops = 5
		return func() {
			for i := 0; i < ops; i++ {
				_ = namespace.NewOverlay(in.frozen.Base)
			}
		}, ops
	}},
	{Name: "lease.table_valid.ns", Prep: func(in *kernelInput) (func(), int) {
		const clients, ops = 100_000, 2_000_000
		t := lease.NewTable(clients, 2)
		files := in.files[:4096]
		for c := 0; c < clients; c++ {
			t.Install(c, files[c&4095].ID, 1, 10*sim.Second)
		}
		picks := make([]int32, 1<<12)
		for i := range picks {
			picks[i] = int32(in.rng.Intn(clients))
		}
		hits := 0
		return func() {
			for i := 0; i < ops; i++ {
				c := int(picks[i&4095])
				if t.Valid(c, files[c&4095].ID, 1, sim.Second) {
					hits++
				}
			}
			_ = hits
		}, ops
	}},
	{Name: "metrics.lathist_observe.ns", Prep: func(in *kernelInput) (func(), int) {
		const ops = 4_000_000
		h := metrics.NewLatHist()
		lat := make([]sim.Time, 1<<12)
		for i := range lat {
			lat[i] = sim.Time(200 + in.rng.Intn(20_000))
		}
		return func() {
			for i := 0; i < ops; i++ {
				h.Observe(lat[i&4095])
			}
		}, ops
	}},
}

// runKernels times every kernel and returns its metric values.
func runKernels(seed int64) (layerValues, error) {
	in, err := newKernelInput(seed)
	if err != nil {
		return nil, err
	}
	out := layerValues{}
	for _, k := range kernels {
		body, ops := k.Prep(in)
		samples := make([]float64, kernelRuns)
		for i := range samples {
			start := time.Now()
			body()
			samples[i] = float64(time.Since(start).Nanoseconds()) / float64(ops)
		}
		sort.Float64s(samples)
		v := samples[kernelRuns/2]
		if k.Scale != 0 {
			v *= k.Scale
		}
		out.set(k.Name, v)
	}
	return out, nil
}
