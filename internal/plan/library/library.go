// Package library seeds the plan engine with production-shaped
// scenarios drawn from the metadata-workload literature: MIDAS-style
// create hotspots, CFS-style container small-file churn, SimFS-style
// analysis campaigns, a cross-authority rename storm, and a
// multi-tenant composite. Each scenario is authored in the plan DSL —
// the Go layer only parses and validates, so `mdsim -plan <name>` and a
// plan file on disk go through the identical path.
package library

import (
	"fmt"
	"sort"
	"sync"

	"dynmds/internal/plan"
)

var sources = []string{midasSrc, cfsSrc, simfsSrc, renameStormSrc, multiTenantSrc, duelSrc, agingSrc}

var (
	once  sync.Once
	plans []*plan.Plan
	byKey map[string]*plan.Plan
)

func load() {
	byKey = make(map[string]*plan.Plan, len(sources))
	for _, src := range sources {
		p, err := plan.Parse(src)
		if err == nil {
			err = p.Validate()
		}
		if err != nil {
			panic(fmt.Sprintf("plan library: %v", err))
		}
		if byKey[p.Name] != nil {
			panic("plan library: duplicate plan " + p.Name)
		}
		byKey[p.Name] = p
		plans = append(plans, p)
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].Name < plans[j].Name })
}

// All returns every library plan, parsed and validated, in name order.
func All() []*plan.Plan {
	once.Do(load)
	return plans
}

// ByName finds a library plan.
func ByName(name string) (*plan.Plan, bool) {
	once.Do(load)
	p, ok := byKey[name]
	return p, ok
}

// midasSrc: MIDAS (PAPERS.md) observes single-directory create storms —
// a burst job materialising millions of entries under one directory —
// as the canonical metadata hotspot. The storm directs 80% of draws at
// one home while background stat traffic continues, swept across the
// dynamic and hashed strategies so the load-spread column shows who
// absorbs it.
const midasSrc = `plan midas-create-hotspot
describe MIDAS-style create storm: one home directory absorbs most creates over a stat baseline.
fs users=40 projects=8
cluster mds=8 cache=2500 bucket=500ms
traffic clients=4000 rate=1 tenants=64 file-skew=0.8
matrix strategy=DynamicSubtree,FileHash
warmup 2s
duration 20s
act phase calm @2s-6s
act hotspot storm @6s-14s rate=x4 mix=stat:20,create:80 target=/home/u0000 frac=0.8
act phase cool @14s-20s
optimize ops p99 load-spread
`

// cfsSrc: CFS (PAPERS.md) characterises container platforms as
// small-file churn — deploy waves create and rename thousands of layer
// files, then settle into stat-heavy steady state with periodic GC
// passes that walk and migrate entries.
const cfsSrc = `plan cfs-small-file-churn
describe CFS-style container churn: deploy waves of creates and renames, stat-heavy steady state, then a GC pass.
fs users=60
cluster mds=8 cache=2500 bucket=500ms
traffic clients=4000 rate=1 tenants=128 file-skew=1 working-set=256
warmup 2s
duration 20s
act phase deploy @2s-8s rate=x3 mix=stat:30,readdir:10,create:50,rename:10
act phase steady @8s-14s mix=stat:70,readdir:15,chmod:10,create:5
act phase gc @14s-20s rate=x2 mix=stat:20,readdir:20,rename:60
optimize ops p99
`

// simfsSrc: SimFS-style analysis campaign — readdir scans enumerate
// project trees at low popularity skew, then a bulk-stat pass hammers
// the hot entries the scan surfaced (skew retargeted upward mid-run).
const simfsSrc = `plan simfs-campaign
describe SimFS-style campaign: readdir scans over project trees, then a skewed bulk-stat pass.
fs users=20 projects=16
cluster mds=8 cache=2500 bucket=500ms
traffic clients=3000 rate=1 tenants=48 working-set=384
warmup 2s
duration 20s
act phase scan @2s-10s mix=readdir:70,stat:30 skew=0.4
act phase bulk-stat @10s-18s rate=x3 mix=stat:95,chmod:5 skew=1.4
optimize ops p50 p99
`

// renameStormSrc: rename is the op that drags entries across authority
// boundaries (§4 of the paper: fixed-position metadata vs dynamic
// redistribution). The storm makes 60% of traffic cross-tenant renames
// and the fwd column shows the forwarding cost each strategy pays.
const renameStormSrc = `plan rename-storm
describe Rename/migration storm: cross-tenant renames drag entries across authority boundaries.
fs users=40
cluster mds=8 cache=2500 bucket=500ms
traffic clients=4000 rate=1 tenants=64 tenant-skew=0.8
warmup 2s
duration 20s
act phase calm @2s-8s
act phase storm @8s-14s rate=x2 mix=stat:30,readdir:10,rename:60
act phase settle @14s-20s
optimize ops p99 fwd
`

// duelSrc: the hotspot duel pits the client-coherence mechanisms
// against each other under a flash crowd. A dumb client round-trips
// every hotspot read to the authority; the lease plane serves repeats
// from the client slab with zero fabric hops; replica fan-out pushes
// the hot directory to peers ahead of demand so the remote reads that
// remain spread across the cluster. The headline is the hot column —
// local+remote ops served at the hotspot per mechanism — read against
// ops and load-spread. The crowd itself is read-only (a flash crowd is
// a read storm, and any mutation at the hot record would recall every
// lease); the closing churn act mutates the records the crowd leased,
// so recall-on-mutate runs against a slab full of live leases.
const duelSrc = `plan hotspot-duel
describe Hotspot duel: dumb clients vs leases vs replica fan-out vs both under a flash crowd.
fs users=40 projects=8
cluster mds=8 cache=2500 bucket=500ms
traffic clients=20000 rate=0.5 tenants=64 file-skew=0.8
matrix mechanism=dumb,leases,fanout,both
matrix strategy=StaticSubtree,DynamicSubtree
warmup 2s
duration 16s
act phase calm @2s-5s
act hotspot crowd @5s-13s rate=x3 mix=stat:90,readdir:10 target=/home/u0000 frac=0.7
act phase churn @13s-16s mix=stat:40,chmod:30,create:30
optimize hot ops p99 load-spread
`

// agingSrc: the endurance plane's churn shape as a plan — sustained
// create/rename/unlink turnover that pushes the COW overlay away from
// its frozen base (tombstones accumulate, directories fragment), with a
// stat-heavy settle so the aged namespace is then read back through the
// overlay it degraded. `mdsim -checkpoint-every` runs the same shape with
// checkpoints and simfsck; this plan exposes it to the comparison
// matrix so strategies can be ranked on an aged namespace.
const agingSrc = `plan namespace-aging
describe Namespace aging: sustained create/rename/unlink churn ages the overlay, then stat traffic reads it back.
fs users=60
cluster mds=4 cache=2500 bucket=500ms
traffic clients=4000 rate=0.5 tenants=96 file-skew=0.8
matrix strategy=DynamicSubtree,StaticSubtree
warmup 2s
duration 24s
act phase churn @2s-16s mix=stat:40,readdir:5,create:25,rename:10,unlink:20
act phase settle @16s-24s mix=stat:80,readdir:10,chmod:5,create:5
optimize ops p99 load-spread
`

// multiTenantSrc composes the other scenarios over one skewed tenant
// population: a deploy wave, a read hotspot crowd, and a bulk-stat
// pass, swept across three strategies.
const multiTenantSrc = `plan multitenant-mix
describe Multi-tenant composite: deploy churn, a read hotspot crowd, then a skewed bulk-stat pass, per strategy.
fs users=40 projects=8
cluster mds=8 cache=2500 bucket=500ms
traffic clients=4000 rate=1 tenants=96 tenant-skew=1 file-skew=1
matrix strategy=DynamicSubtree,StaticSubtree,FileHash
warmup 2s
duration 24s
act phase deploy @2s-8s rate=x2 mix=stat:40,readdir:10,create:40,rename:10
act hotspot crowd @8s-16s rate=x3 mix=stat:85,readdir:10,chmod:5 target=/home/u0001 frac=0.6
act phase bulk-stat @16s-24s mix=stat:90,chmod:10 skew=1.4
optimize ops p99 load-spread
`
