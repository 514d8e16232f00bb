// Package core implements what makes the paper's subtree partition
// dynamic (§4), over partition.Subtree's delegation table:
//
//   - Balancer: the heartbeat-driven load balancer that migrates
//     subtrees from busy to non-busy nodes (§4.3), preferring to
//     re-delegate whole previously imported subtrees to keep the
//     partition simple;
//   - TrafficControl: the popularity-driven replication policy that
//     manages client ignorance to disperse flash crowds (§4.4).
//
// Directory hashing, the third mechanism, is partition.Subtree's.
package core

import (
	"sort"

	"dynmds/internal/cache"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
)

// Node is the balancer's view of one MDS. internal/mds implements it.
type Node interface {
	// Load returns the node's current load metric — the paper's
	// prototype uses "a weighted combination of node throughput and
	// cache misses" (§5.1).
	Load(now sim.Time) float64
	// Cache exposes the node's metadata cache for popularity surveys
	// and migration.
	Cache() *cache.Cache
	// ImportSubtree installs migrated cache state: the double-commit
	// transfer hands the importer "all active state and cached
	// metadata" so it need not re-read it from disk (§4.3).
	ImportSubtree(root *namespace.Inode, entries []Migrated)
	// EvictSubtree discards the exporter's cached state for the
	// migrated subtree.
	EvictSubtree(root *namespace.Inode)
	// Failed reports whether the node is down (a crash on the fault
	// schedule, or the failover extension).
	Failed() bool
}

// The balancer's policy.
const (
	// highFactor and lowFactor classify nodes: busy if load >
	// mean*highFactor, available if load < mean*lowFactor.
	highFactor = 1.2
	lowFactor  = 0.9
	// minMeanLoad disables balancing while the cluster is nearly idle.
	minMeanLoad = 50
	// maxMigrationsPerRound bounds churn per heartbeat round.
	maxMigrationsPerRound = 2
	// decisionDelay models the heartbeat exchange (§4.3): load values
	// travel the cluster as messages, so balance decisions act on
	// values this much older than the decision instant.
	decisionDelay = sim.Millisecond
	// minSubtreePop avoids migrating cold subtrees that would not move
	// any load.
	minSubtreePop = 1
)

// BalancerConfig tunes the load balancer.
type BalancerConfig struct {
	// Interval between heartbeat/balance rounds.
	Interval sim.Time
	// NoRedelegateFirst disables the prefer-imported-trees pass
	// (ablation: the paper argues re-delegating whole imported trees
	// keeps the partition simple).
	NoRedelegateFirst bool
}

// DefaultBalancerConfig returns the configuration used by experiments.
func DefaultBalancerConfig() BalancerConfig {
	return BalancerConfig{Interval: 5 * sim.Second}
}

// Migrated is a by-value snapshot of one cache entry handed across a
// migration. The exporter recycles its *cache.Entry objects into its
// own pool right after EvictSubtree, so importers must never retain
// pointers into the exporter's cache — only the inode and class travel.
type Migrated struct {
	Ino   *namespace.Inode
	Class cache.Class
}

// Balancer periodically exchanges heartbeat load information among MDS
// nodes and transfers authority for appropriately popular subtrees from
// busy nodes to non-busy ones (§4.3).
type Balancer struct {
	eng   *sim.Engine
	cfg   BalancerConfig
	table *partition.SubtreeTable
	nodes []Node

	// imports[root] = node that delegated the subtree here; busy nodes
	// first try to re-delegate entire imported trees to keep the
	// overall partition simple.
	imports map[*namespace.Inode]int

	ticker *sim.Ticker

	// Migrations counts executed transfers.
	Migrations int
}

// NewBalancer wires a balancer over the cluster's nodes. Call Start to
// begin heartbeats.
func NewBalancer(eng *sim.Engine, cfg BalancerConfig, table *partition.SubtreeTable, nodes []Node) *Balancer {
	return &Balancer{
		eng:     eng,
		cfg:     cfg,
		table:   table,
		nodes:   nodes,
		imports: make(map[*namespace.Inode]int),
	}
}

// Start begins periodic balancing.
func (b *Balancer) Start() {
	b.ticker = sim.NewTicker(b.eng, b.cfg.Interval, b.Rebalance)
	b.ticker.Start()
}

// Stop halts periodic balancing.
func (b *Balancer) Stop() {
	if b.ticker != nil {
		b.ticker.Stop()
	}
}

// Rebalance runs one heartbeat round: every node's load is exchanged
// over the interconnect (§4.3: "the MDS nodes exchange heartbeat
// messages that include a description of their current load level"),
// then — one message delay later — busy nodes migrate subtrees to
// available ones based on the exchanged (now slightly stale) values.
// Exported for tests and manual driving.
func (b *Balancer) Rebalance(now sim.Time) {
	n := len(b.nodes)
	if n < 2 {
		return
	}
	// A failed node sits out the round entirely: it cannot heartbeat, it
	// has no workload left to donate (failover reassigned its subtrees),
	// and — critically — its decayed-to-zero load must not make it look
	// "available", or the balancer would migrate authority onto a dead
	// node and black-hole every request sent there.
	loads := make([]float64, n)
	dead := make([]bool, n)
	alive := 0
	var mean float64
	for i, node := range b.nodes {
		if node.Failed() {
			dead[i] = true
			continue
		}
		loads[i] = node.Load(now)
		mean += loads[i]
		alive++
	}
	if alive < 2 {
		return
	}
	mean /= float64(alive)
	if mean < minMeanLoad {
		return
	}
	b.eng.AfterCall(decisionDelay, decide, b, &round{loads, dead, mean})
}

// round is one heartbeat round's exchanged load vector.
type round struct {
	loads []float64
	dead  []bool
	mean  float64
}

// decide applies one round's migration decisions to the exchanged
// load vector. dead nodes (snapshotted with the loads, so the decision
// acts on heartbeat-aged information) are excluded from both sides.
func decide(x, y any) {
	b, r := x.(*Balancer), y.(*round)
	loads, dead, mean := r.loads, r.dead, r.mean
	// Busy nodes descending, available nodes ascending by load.
	var busy, avail []int
	for i := range b.nodes {
		if dead[i] {
			continue
		}
		switch {
		case loads[i] > mean*highFactor:
			busy = append(busy, i)
		case loads[i] < mean*lowFactor:
			avail = append(avail, i)
		}
	}
	sort.Slice(busy, func(i, j int) bool { return loads[busy[i]] > loads[busy[j]] })
	sort.Slice(avail, func(i, j int) bool { return loads[avail[i]] < loads[avail[j]] })
	if len(busy) == 0 || len(avail) == 0 {
		return
	}

	migrations := 0
	ai := 0
	for _, src := range busy {
		if migrations >= maxMigrationsPerRound || ai >= len(avail) {
			break
		}
		dst := avail[ai]
		if b.migrateOne(b.eng.Now(), src, dst, loads[src], loads[src]-mean) {
			migrations++
			ai++
		}
	}
}

// migrateOne picks one subtree on src worth roughly excess load and
// delegates it to dst. Returns whether a migration happened.
func (b *Balancer) migrateOne(now sim.Time, src, dst int, load, excess float64) bool {
	node := b.nodes[src]
	roots := b.table.RootsOf(src)
	if len(roots) == 0 {
		return false
	}
	// Survey cached popularity per owned root in one cache pass.
	pops := b.surveyRoots(now, node, roots)
	var nodePop float64
	for _, p := range pops {
		nodePop += p
	}
	if nodePop <= 0 {
		return false
	}
	wantFrac := excess / load
	if wantFrac > 0.5 {
		wantFrac = 0.5 // never hand off more than half a node's work at once
	}
	wantPop := float64(nodePop * wantFrac)
	if wantPop < minSubtreePop {
		return false
	}

	// Pass 1 (keep the partition simple, per §4.3): re-delegate an
	// entire previously imported tree. Among imported roots that would
	// not overshoot badly (<= 2x the target), pick the one closest to
	// the target popularity.
	bestIdx := -1
	var bestDist float64
	for i, r := range roots {
		if b.cfg.NoRedelegateFirst {
			break
		}
		if _, imported := b.imports[r]; !imported {
			continue
		}
		if pops[i] < minSubtreePop || pops[i] > 2*wantPop {
			continue
		}
		d := abs(pops[i] - wantPop)
		if bestIdx < 0 || d < bestDist {
			bestIdx, bestDist = i, d
		}
	}
	if bestIdx >= 0 {
		b.transfer(roots[bestIdx], src, dst)
		return true
	}

	// Pass 2: split off part of the node's own workload. Take the
	// busiest owned root; if it fits the target comfortably move it
	// whole, otherwise descend one level and move the child directory
	// closest to the target. If no suitable child exists, fall back to
	// the whole root as long as it does not overshoot badly.
	hot := -1
	for i := range roots {
		if roots[i].Parent() == nil {
			continue // never delegate away "/" itself
		}
		if hot < 0 || pops[i] > pops[hot] {
			hot = i
		}
	}
	if hot < 0 || pops[hot] < minSubtreePop {
		return false
	}
	root := roots[hot]
	if pops[hot] <= wantPop*1.5 {
		b.transfer(root, src, dst)
		return true
	}
	if children := b.pickChildren(now, node, root, wantPop); len(children) > 0 {
		for _, c := range children {
			b.transfer(c, src, dst)
		}
		return true
	}
	if pops[hot] <= 2*wantPop {
		b.transfer(root, src, dst)
		return true
	}
	return false
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// surveyRoots sums decayed popularity of cached entries per owned root.
func (b *Balancer) surveyRoots(now sim.Time, node Node, roots []*namespace.Inode) []float64 {
	pops := make([]float64, len(roots))
	idx := make(map[*namespace.Inode]int, len(roots))
	for i, r := range roots {
		idx[r] = i
	}
	node.Cache().ForEach(func(e *cache.Entry) {
		p := entryPop(now, e)
		if p == 0 {
			return
		}
		// Attribute to the nearest owned root at or above the entry.
		for c := e.Ino; c != nil; c = c.Parent() {
			if i, ok := idx[c]; ok {
				pops[i] += p
				return
			}
		}
	})
	return pops
}

// pickChildren selects child directories of root whose cached subtree
// popularities greedily sum to roughly wantPop. Children that already
// carry their own delegation (they belong to someone else) are skipped.
func (b *Balancer) pickChildren(now sim.Time, node Node, root *namespace.Inode, wantPop float64) []*namespace.Inode {
	childPop := make(map[*namespace.Inode]float64)
	node.Cache().ForEach(func(e *cache.Entry) {
		p := entryPop(now, e)
		if p == 0 {
			return
		}
		// Find the ancestor that is a direct child of root.
		var prev *namespace.Inode
		for c := e.Ino; c != nil; c = c.Parent() {
			if c == root {
				break
			}
			prev = c
		}
		if prev != nil && prev.Parent() == root && prev.IsDir() {
			if _, taken := b.table.Assigned(prev); taken {
				return
			}
			childPop[prev] += p
		}
	})
	// Deterministic order: popularity descending, inode ID tie-break.
	cands := make([]*namespace.Inode, 0, len(childPop))
	for c, p := range childPop {
		if p >= minSubtreePop {
			cands = append(cands, c)
		}
		_ = p
	}
	sort.Slice(cands, func(i, j int) bool {
		pi, pj := childPop[cands[i]], childPop[cands[j]]
		if pi != pj {
			return pi > pj
		}
		return cands[i].ID < cands[j].ID
	})
	var picked []*namespace.Inode
	var sum float64
	for _, c := range cands {
		if sum >= wantPop {
			break
		}
		picked = append(picked, c)
		sum += childPop[c]
	}
	return picked
}

// entryPop values only authoritative entries: popularity counters live
// on the shared inode, so replica and prefix copies of an item served
// elsewhere must not count as this node's exportable load.
func entryPop(now sim.Time, e *cache.Entry) float64 {
	if e.Class != cache.Auth {
		return 0
	}
	tags := partition.TagsOf(e.Ino)
	if !tags.Has(namespace.PopTouched) {
		return 0
	}
	return tags.Pop.Value(now, partition.PopHalfLife)
}

// transfer executes the double-commit authority migration: the subtree
// table is updated, the importer receives the exporter's cached state
// (one exactly sized slice, in the exporter's hot-then-warm order), and
// the exporter discards it.
func (b *Balancer) transfer(root *namespace.Inode, src, dst int) {
	c := b.nodes[src].Cache()
	entries := make([]Migrated, 0, c.CountUnder(root))
	c.ForEachUnder(root, func(e *cache.Entry) {
		entries = append(entries, Migrated{Ino: e.Ino, Class: e.Class})
	})
	if err := b.table.Delegate(root, dst); err != nil {
		return
	}
	b.nodes[dst].ImportSubtree(root, entries)
	b.nodes[src].EvictSubtree(root)
	// Either way the tree is now an import at dst, delegated by src;
	// if dst grows busy it will prefer handing the whole tree onward.
	b.imports[root] = src
	b.Migrations++
}
