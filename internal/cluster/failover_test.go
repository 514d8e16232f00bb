package cluster

import (
	"testing"

	"dynmds/internal/sim"
)

// TestFailoverDynamic: a small dynamic cluster loses one node to a
// scheduled crash. From the instant the suspicion protocol confirms it
// down until its recovery the victim owns no delegated root, clients
// retry through the outage rather than stalling, and the node rejoins
// with a log-warmed cache.
func TestFailoverDynamic(t *testing.T) {
	const victim = 1
	cfg := smallConfig(StratDynamic)
	cfg.Client.RetryTimeout = 200 * sim.Millisecond
	cfg.Duration = 12 * sim.Second
	cfg.Warmup = 2 * sim.Second
	cfg.Faults = "crash@4s-8s:mds1"
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampledDown := 0
	for at := 4 * sim.Second; at < 8*sim.Second; at += 100 * sim.Millisecond {
		cl.Eng.At(at, func() {
			if !cl.NodeDown(victim) {
				return
			}
			sampledDown++
			if n := len(cl.Dyn.Table.RootsOf(victim)); n != 0 {
				t.Errorf("t=%v: confirmed-down victim still owns %d roots", cl.Eng.Now(), n)
			}
		})
	}
	res := cl.Run()

	if sampledDown == 0 {
		t.Fatalf("the crash was never confirmed: downs=%v", res.Downs)
	}
	if res.MeasuredOps == 0 {
		t.Fatal("no ops measured")
	}
	if res.Retries == 0 {
		t.Fatal("no client retries despite a node outage")
	}
	stuck := 0
	for _, c := range cl.Clients {
		if c.Stats.Completed == 0 {
			stuck++
		}
	}
	if stuck > 0 {
		t.Fatalf("%d clients never completed an op", stuck)
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].Warmed == 0 {
		t.Fatalf("recovery warmed nothing from the log: %v", res.Recoveries)
	}
	// Outstanding at end is at most one op per client (closed loop).
	if out := res.Issued - res.Completed - res.TimedOut; out > uint64(len(cl.Clients)) {
		t.Fatalf("leaked requests: issued=%d completed=%d timed out=%d", res.Issued, res.Completed, res.TimedOut)
	}
}

func TestPickLeastLoaded(t *testing.T) {
	load := []float64{5, 2, 9, 2}
	if got := pickLeastLoaded([]int{0, 2}, load); got != 0 {
		t.Errorf("pick([0 2]) = %d, want 0", got)
	}
	// Ties break toward the lowest id.
	if got := pickLeastLoaded([]int{1, 3}, load); got != 1 {
		t.Errorf("pick([1 3]) = %d, want 1 (tie → lowest)", got)
	}
	if got := pickLeastLoaded([]int{3}, load); got != 3 {
		t.Errorf("pick([3]) = %d, want 3", got)
	}
}

// inertFaults turns fault mode on (suspicion state, down verdicts)
// without perturbing anything: its only rule never fires.
const inertFaults = "drop@0:all"

// TestMarkDownSpreadsRoots checks the least-loaded reassignment spreads
// a confirmed-down victim's subtrees over all survivors instead of
// dumping them on one: on an idle cluster every assignment costs one
// estimated unit, so the greedy placement degenerates to an even split.
func TestMarkDownSpreadsRoots(t *testing.T) {
	cfg := smallConfig(StratDynamic)
	cfg.NumMDS = 4
	cfg.Faults = inertFaults
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 2
	moved := len(cl.Dyn.Table.RootsOf(victim))
	if moved < 2 {
		t.Skipf("victim owns %d roots; need >= 2 for a spread", moved)
	}
	before := map[int]int{}
	for j := 0; j < cfg.NumMDS; j++ {
		before[j] = len(cl.Dyn.Table.RootsOf(j))
	}
	cl.markDown(victim)
	if n := len(cl.Dyn.Table.RootsOf(victim)); n != 0 {
		t.Fatalf("victim retains %d roots", n)
	}
	// Every node is idle (Load = 0), so each assignment adds one
	// estimated unit and the greedy placement must split the victim's
	// roots evenly: per-survivor gains differ by at most one.
	minGain, maxGain := moved, 0
	for j := 0; j < cfg.NumMDS; j++ {
		if j == victim {
			continue
		}
		gain := len(cl.Dyn.Table.RootsOf(j)) - before[j]
		if gain < minGain {
			minGain = gain
		}
		if gain > maxGain {
			maxGain = gain
		}
	}
	if maxGain-minGain > 1 {
		t.Fatalf("uneven reassignment of %d roots: gains range %d..%d", moved, minGain, maxGain)
	}
	if maxGain == moved {
		t.Fatalf("all %d roots dumped on one survivor", moved)
	}
}

// TestSuspicionLifecycle drives the suspicion methods of mds.Cluster directly:
// strikes below the threshold are reversible by exoneration, the
// threshold confirms the peer down (reassigning its subtrees), and a
// down verdict is sticky until recovery clears it.
func TestSuspicionLifecycle(t *testing.T) {
	cfg := smallConfig(StratDynamic)
	cfg.Faults = inertFaults
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const peer = 1
	cl.Suspect(0, peer)
	cl.Suspect(2, peer)
	if cl.NodeDown(peer) {
		t.Fatal("down below threshold")
	}
	cl.Exonerate(peer)
	cl.Suspect(0, peer)
	cl.Suspect(0, peer)
	if cl.NodeDown(peer) {
		t.Fatal("exoneration did not reset strikes")
	}
	cl.Suspect(0, peer)
	if !cl.NodeDown(peer) {
		t.Fatal("threshold did not confirm the peer down")
	}
	if len(cl.Downs) != 1 || cl.Downs[0].Node != peer {
		t.Fatalf("down event not recorded: %v", cl.Downs)
	}
	if n := len(cl.Dyn.Table.RootsOf(peer)); n != 0 {
		t.Fatalf("down peer retains %d roots", n)
	}
	// Sticky: a late ack must not resurrect a confirmed-down node.
	cl.Exonerate(peer)
	if !cl.NodeDown(peer) {
		t.Fatal("exoneration resurrected a down node")
	}
	if err := cl.RecoverNode(peer); err != nil {
		t.Fatal(err)
	}
	if cl.NodeDown(peer) {
		t.Fatal("recovery did not clear the down verdict")
	}
	if len(cl.Recoveries) != 1 {
		t.Fatalf("recovery event not recorded: %v", cl.Recoveries)
	}
}

func TestFailoverErrors(t *testing.T) {
	cl, err := New(smallConfig(StratDynamic))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 99} {
		if err := cl.RecoverNode(i); err == nil {
			t.Fatalf("out-of-range recover of node %d accepted", i)
		}
	}
}

// TestFailoverStaticMarksDownOnly: a static partition has nothing to
// reassign; a confirmed-down node is recorded and routed around.
func TestFailoverStaticMarksDownOnly(t *testing.T) {
	cfg := smallConfig(StratStatic)
	cfg.Faults = inertFaults
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.markDown(0)
	if !cl.NodeDown(0) || len(cl.Downs) != 1 {
		t.Fatalf("down verdict not recorded: down=%v events=%v", cl.NodeDown(0), cl.Downs)
	}
	if len(cl.lostRoots) != 0 {
		t.Fatalf("a static partition reassigned roots: %v", cl.lostRoots)
	}
}

// TestMarkDownAllDead: with no survivor there is nowhere to reassign
// to; the victim keeps its roots and the verdict still stands.
func TestMarkDownAllDead(t *testing.T) {
	cfg := smallConfig(StratDynamic)
	cfg.NumMDS = 1
	cfg.ClientsPerMDS = 2
	cfg.Faults = inertFaults
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	roots := len(cl.Dyn.Table.RootsOf(0))
	if err := cl.reassignRoots(0); err == nil {
		t.Fatal("reassigning the last node's roots should error")
	}
	cl.markDown(0)
	if !cl.NodeDown(0) {
		t.Fatal("down verdict lost")
	}
	if n := len(cl.Dyn.Table.RootsOf(0)); n != roots {
		t.Fatalf("roots went from %d to %d with no survivor to take them", roots, n)
	}
}

func TestSharedOSDPoolBackend(t *testing.T) {
	// deepest is the deepest line any node's local read or log disk
	// queued, and the run's result.
	deepest := func(osds int) (int, *Result) {
		cfg := smallConfig(StratDynamic)
		cfg.OSDs = osds
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (cl.Pool != nil) != (osds > 0) {
			t.Fatalf("OSDs = %d: pool constructed = %v", osds, cl.Pool != nil)
		}
		res := cl.Run()
		if res.MeasuredOps == 0 {
			t.Fatalf("OSDs = %d: no ops", osds)
		}
		depth := 0
		for _, n := range cl.Nodes {
			r, l := n.Store().MaxQueues()
			depth = max(depth, r, l)
		}
		return depth, res
	}
	// Every store read and log append went to the pool instead of a
	// node-local disk: no local disk queued, where the same run on local
	// disks queues, and the pool's slower writes moved the latency.
	localDepth, local := deepest(0)
	poolDepth, pooled := deepest(12)
	if localDepth == 0 {
		t.Fatal("no local disk queued without the pool: the check below proves nothing")
	}
	if poolDepth != 0 {
		t.Fatalf("a node-local disk queued %d deep with the shared pool", poolDepth)
	}
	if pooled.MeanLatency == local.MeanLatency {
		t.Fatal("the shared pool left the mean latency unchanged")
	}
}
