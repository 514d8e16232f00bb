package main

import "dynmds/internal/cluster"

// metricSpec names one metric. BENCHMARK.json lists the same names, units
// and directions; bench_test.go keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before a change is a regression, when the two
	// sides are medians over different seeds (the driver's comparison). It
	// has to hold the seed-to-seed spread of the metric, about three times
	// over, and so is wider than what one seed can resolve.
	Bound float64
	// SameSeed is the bound -compare applies when both result sets ran one
	// seed, where inputs are identical and only the host's noise is left.
	// Zero marks a simulated metric: it must repeat bit for bit.
	SameSeed float64
}

// endToEnd are the twelve metrics a user of the simulator sees. Host
// metrics are medians over repetitions in fresh processes; simulated ones
// are identical in every repetition of a seed (checked).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, SameSeed: 0.10},
	{Name: "cpu_per_sim_s", Unit: "s/s", Better: "lower", Bound: 0.25, SameSeed: 0.10},
	{Name: "allocs_per_op", Unit: "1/op", Better: "lower", Bound: 0.15, SameSeed: 0.01},
	{Name: "alloc_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.15, SameSeed: 0.01},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.08, SameSeed: 0.02},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10, SameSeed: 0.10},
	{Name: "sim_ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.08},
	{Name: "sim_p50_ms", Unit: "ms", Better: "lower", Bound: 0.05},
	{Name: "sim_p99_ms", Unit: "ms", Better: "lower", Bound: 0.18},
	{Name: "sim_p999_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_hit_rate", Unit: "fraction", Better: "higher", Bound: 0.03},
	{Name: "completed_frac", Unit: "fraction", Better: "higher", Bound: 0.01},
}

// profileLayers are the buckets a CPU profile is folded into: every
// internal package the benchmark can reach, plus three for the runtime.
// Samples of any other code (the standard library, this package) count as
// runtime.other, so the shares always sum to 1.
var profileLayers = []string{
	"cache", "chaos", "client", "cluster", "core", "dirstore", "endure", "fsgen", "lease",
	"mds", "metrics", "msg", "namespace", "net", "partition", "sim", "snap", "storage", "workload",
	"runtime.gc", "runtime.malloc", "runtime.other",
}

// perLayer lists every per-layer metric in print order. The tag in the
// comment is the source: [S] span timed by the benchmark, [K] kernel
// driving the layer's public API, [C] public counter read after the
// traced run, [P] profile fold.
var perLayer = func() []metricSpec {
	var m []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			m = append(m, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	for _, l := range profileLayers {
		add("fraction", "lower", l+".cpu_share") // [P]
	}
	add("count", "lower", "sim.events")                                                            // [C]
	add("ns", "lower", "sim.ns_per_event")                                                         // [C]
	add("1/s", "higher", "sim.events_per_cpu_s")                                                   // [C]
	add("ns", "lower", "sim.heap.ns_per_event", "sim.wheel.ns_per_timer", "sim.server.ns_per_job") // [K]
	add("ratio", "higher", "sim.shard.k2_wall_speedup")                                            // [S]
	add("ratio", "lower", "sim.shard.k2_cpu_ratio")                                                // [S]
	add("count", "lower", "sim.shard.k2_windows")                                                  // [C]
	add("fraction", "lower", "sim.shard.k2_ops_drift")                                             // [C]
	add("s", "lower", "fsgen.generate_s", "fsgen.thaw_s")                                          // [S]
	add("count", "lower", "fsgen.inodes")                                                          // [C]
	add("ns", "lower", "fsgen.generate.ns_per_inode")                                              // [S]
	add("s", "lower", "cluster.new_s", "cluster.run_wall_s", "cluster.run_cpu_s", "cluster.collect_s")
	add("ns", "lower", "client.population.setup_ns_per_client") // [S]
	add("B", "lower", "client.population.bytes_per_client")     // [C]
	add("count", "lower", "client.retries", "client.timed_out") // [C]
	add("count", "lower", "client.in_flight_at_end")            // [C]
	add("ns", "lower", "workload.tenant_draw.ns")               // [K]
	add("count", "lower", "net.msgs")                           // [C]
	add("B", "lower", "net.bytes")
	add("1/op", "lower", "net.msgs_per_op")
	add("count", "lower", "net.max_link_depth")
	add("ns", "lower", "net.fabric.ns_per_msg") // [K]
	add("count", "lower", "mds.forwards")       // [C]
	add("fraction", "lower", "mds.forward_frac")
	add("count", "lower", "mds.remote_fetches", "mds.miss_loads", "mds.commits")
	add("count", "higher", "mds.replica_serves")
	add("count", "higher", "cache.hits") // [C]
	add("count", "lower", "cache.misses")
	add("fraction", "higher", "cache.hit_rate")
	add("fraction", "lower", "cache.prefix_frac")
	add("ns", "lower", "cache.get_hit.ns", "cache.insert_evict.ns") // [K]
	add("ns", "lower", "partition.authority.ns")                    // [K]
	add("count", "lower", "core.migrations", "core.replications")   // [C]
	add("ns", "lower", "storage.log_append.ns")                     // [K]
	add("ns", "lower", "namespace.lookup.ns", "namespace.create_unlink.ns")
	add("us", "lower", "namespace.overlay_new.us")
	add("count", "lower", "namespace.tombstones") // [C]
	add("fraction", "lower", "namespace.lazy_miss_rate")
	add("count", "lower", "namespace.live_inodes")
	add("count", "higher", "lease.grants", "lease.hits") // [C]
	add("fraction", "higher", "lease.hit_frac")
	add("count", "lower", "lease.recalls", "lease.acks", "lease.fanouts")
	add("B", "lower", "lease.bytes")
	add("ns", "lower", "lease.table_valid.ns")                              // [K]
	add("ns", "lower", "metrics.lathist_observe.ns")                        // [K]
	add("s", "lower", "endure.quiesce_s", "snap.encode_s", "snap.decode_s") // [S]
	add("B", "lower", "snap.bytes")
	add("MB/s", "higher", "snap.codec.mb_per_s")
	add("s", "lower", "chaos.fsck_s", "endure.restore_run_s")
	add("count", "lower", "runtime.gc_cycles") // [C]
	add("ms", "lower", "runtime.gc_pause_ms")
	add("fraction", "lower", "trace.overhead_frac")
	add("count", "lower", "trace.spans")
	return m
}()

// layerValues maps a per-layer metric name to its value; nil means the
// layer does not run on the workload (reported as null, and as 0 on the
// driver's result line, which only carries numbers).
type layerValues map[string]*float64

func (l layerValues) set(name string, v float64) { l[name] = &v }
func (l layerValues) null(name string)           { l[name] = nil }

// readCounters copies the layers' public counters into l. Every value is
// read after the run from exported fields and methods; nothing here is
// counted by the benchmark itself.
func readCounters(l layerValues, c *cluster.Cluster, r *cluster.Result, runCPU float64, hooks int) {
	events := float64(c.ExecutedEvents()) - float64(hooks) // the benchmark's own boundary events
	l.set("sim.events", events)
	if events > 0 && runCPU > 0 {
		l.set("sim.ns_per_event", runCPU*1e9/events)
		l.set("sim.events_per_cpu_s", events/runCPU)
	}

	l.set("client.retries", float64(r.Retries))
	l.set("client.timed_out", float64(r.TimedOut))
	l.set("client.in_flight_at_end", float64(r.Issued-r.Completed-r.TimedOut))

	l.set("net.msgs", float64(r.Net.Messages))
	l.set("net.bytes", float64(r.Net.Bytes))
	if r.Completed > 0 {
		l.set("net.msgs_per_op", float64(r.Net.Messages)/float64(r.Completed))
	}
	l.set("net.max_link_depth", float64(r.Net.MaxQueueDepth))

	var fwd, arrivals, fetches, loads, commits, serves, hits, misses uint64
	for _, n := range c.Nodes {
		fwd += n.Stats.Forwarded
		arrivals += n.Stats.ClientArrivals
		fetches += n.Stats.RemoteFetches
		loads += n.Stats.CacheMissLoads
		commits += n.Stats.Commits
		serves += n.Stats.ReplicaServes
		hits += n.Cache().Stats.Hits
		misses += n.Cache().Stats.Misses
	}
	l.set("mds.forwards", float64(fwd))
	if arrivals > 0 {
		l.set("mds.forward_frac", float64(fwd)/float64(arrivals))
	}
	l.set("mds.remote_fetches", float64(fetches))
	l.set("mds.miss_loads", float64(loads))
	l.set("mds.commits", float64(commits))
	l.set("mds.replica_serves", float64(serves))
	l.set("cache.hits", float64(hits))
	l.set("cache.misses", float64(misses))
	if hits+misses > 0 {
		l.set("cache.hit_rate", float64(hits)/float64(hits+misses))
	}
	l.set("cache.prefix_frac", r.PrefixFrac)

	l.set("core.migrations", float64(r.Migrations))
	l.set("core.replications", float64(r.Replications))

	tree := c.Tree()
	l.set("namespace.tombstones", float64(tree.TombstoneCount()))
	if lookups, lazyMisses := tree.LazyStats(); lookups > 0 {
		l.set("namespace.lazy_miss_rate", float64(lazyMisses)/float64(lookups))
	} else {
		l.set("namespace.lazy_miss_rate", 0)
	}
	l.set("namespace.live_inodes", float64(tree.Len()))

	leaseNames := []string{"lease.grants", "lease.hits", "lease.hit_frac", "lease.recalls", "lease.acks", "lease.fanouts", "lease.bytes"}
	if c.Lease == nil {
		for _, n := range leaseNames {
			l.null(n)
		}
		return
	}
	l.set("lease.grants", float64(r.LeaseGrants))
	l.set("lease.hits", float64(r.LeaseHits))
	if r.Issued > 0 {
		l.set("lease.hit_frac", float64(r.LeaseHits)/float64(r.Issued))
	}
	l.set("lease.recalls", float64(r.LeaseRecalls))
	l.set("lease.acks", float64(r.LeaseAcks))
	l.set("lease.fanouts", float64(r.ReplicaFanouts))
	l.set("lease.bytes", float64(r.LeaseFootprint))
}
