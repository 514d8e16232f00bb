package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dynmds/internal/net"
	"dynmds/internal/sim"
)

// stripWallTimes zeroes the wall-clock accounting, which is the only
// nondeterministic part of a Result.
func stripWallTimes(r *Result) *Result {
	r.SetupWall = 0
	r.RunWall = 0
	return r
}

func runConfig(t *testing.T, cfg Config) (*Cluster, *Result) {
	t.Helper()
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl, cl.Run()
}

// TestBadFaultScheduleRejected checks New fails fast on malformed
// schedules and on node references outside the cluster.
func TestBadFaultScheduleRejected(t *testing.T) {
	cfg := smallConfig(StratDynamic)
	cfg.Faults = "boom@1s:mds0"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown fault kind accepted")
	}
	cfg.Faults = "crash@1s:mds9" // NumMDS is 3
	if _, err := New(cfg); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestFaultyMessageConservation extends the fabric conservation
// identity to faulty runs: with a mid-run crash window and random
// message drops, every message sent was either delivered or dropped,
// no pooled envelope leaked, and after the drain every issued client
// request is accounted completed or timed out — nothing hangs.
func TestFaultyMessageConservation(t *testing.T) {
	for _, s := range []string{StratDynamic, StratFileHash} {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			cfg := fig2QuickConfig(s)
			cfg.Faults = "crash@3s-6s:mds1,drop@0.02:all"
			cl, res := runConfig(t, cfg)
			drain(cl)

			if n := cl.Fab.InFlight(); n != 0 {
				t.Errorf("in-flight after drain = %d", n)
			}
			if n := cl.Fab.LiveEnvelopes(); n != 0 {
				t.Errorf("live envelopes after drain = %d", n)
			}
			var dropped uint64
			for c := 0; c < net.NumClasses; c++ {
				cs := cl.Fab.Class(net.Class(c))
				if cs.Sent != cs.Delivered+cs.Dropped {
					t.Errorf("%s: sent %d != delivered %d + dropped %d",
						net.Class(c), cs.Sent, cs.Delivered, cs.Dropped)
				}
				dropped += cs.Dropped
			}
			if dropped == 0 {
				t.Error("drop rule never fired")
			}

			// Client-side conservation: requests cross the edge once per
			// send (issue or retry), and the drain orphans nothing.
			if err := cl.DrainCheck(); err != nil {
				t.Error(err)
			}
			var issued, retries uint64
			for _, c := range cl.Clients {
				issued += c.Stats.Issued
				retries += c.Stats.Retries
			}
			req := cl.Fab.Class(net.Request)
			if req.Sent != issued+retries {
				t.Errorf("requests sent %d != issued %d + retries %d",
					req.Sent, issued, retries)
			}
			if retries == 0 {
				t.Error("no retries despite crash+drop schedule")
			}
			if len(res.Failures) != 1 || len(res.Recoveries) != 1 {
				t.Errorf("events: failures=%v recoveries=%v", res.Failures, res.Recoveries)
			}
		})
	}
}

// TestCompletionRecordedOncePerAcceptedReply holds the response-time
// sample set to the clients' own ledger under drops, retries and a crash
// window, for both client models, with Config.Shards unset and set
// (nothing reads it): after the drain the latency histogram holds
// exactly one sample per completed operation and the availability
// series sums to the same number — a duplicate reply, or a late answer
// to a request already retired, is in neither.
func TestCompletionRecordedOncePerAcceptedReply(t *testing.T) {
	loops := []struct {
		name string
		cfg  Config
	}{
		{"closed", fig2QuickConfig(StratDynamic)},
		{"open", openLoopConfig(StratDynamic)},
	}
	for _, loop := range loops {
		for _, shards := range []int{0, 2} {
			cfg := loop.cfg
			cfg.Shards = shards
			cfg.Faults = "drop@0.05:all,crash@2s-4s:mds1"
			t.Run(fmt.Sprintf("%s/shards=%d", loop.name, shards), func(t *testing.T) {
				t.Parallel()
				cl, res := runConfig(t, cfg)
				if res.Retries == 0 {
					t.Fatal("the schedule caused no retransmission: no duplicate reply to refuse")
				}
				cl.Drain()
				if err := cl.DrainCheck(); err != nil {
					t.Fatal(err)
				}
				res = cl.Collect()
				if n := cl.LatH.N(); n != res.Completed {
					t.Errorf("latency samples %d != completed %d", n, res.Completed)
				}
				var series float64 // each completion observes 1
				for i := 0; i < res.CompletedOps.Len(); i++ {
					series += res.CompletedOps.Sum(i)
				}
				if uint64(series) != res.Completed {
					t.Errorf("availability series sums to %v != completed %d", series, res.Completed)
				}
				if res.MeanLatency != cl.LatH.Mean() || res.MeanLatency <= 0 {
					t.Errorf("mean latency %v, histogram mean %v", res.MeanLatency, cl.LatH.Mean())
				}
			})
		}
	}
}

// TestFaultDeterminism checks the whole-run reproducibility contract
// under an aggressive schedule: same seed + same schedule must give a
// bit-identical Result, wall-clock accounting aside.
func TestFaultDeterminism(t *testing.T) {
	cfg := fig2QuickConfig(StratDynamic)
	cfg.Faults = "crash@3s-6s:mds1,drop@0.02:all,lag@2s-5s:all+500us,slow@4s-7s:mds2x3"
	_, a := runConfig(t, cfg)
	_, b := runConfig(t, cfg)
	if !reflect.DeepEqual(stripWallTimes(a), stripWallTimes(b)) {
		t.Errorf("faulty runs diverged:\n%s\n%s", a, b)
	}
	if a.Retries == 0 || a.Suspicions == 0 {
		t.Errorf("schedule had no effect: retries=%d suspicions=%d", a.Retries, a.Suspicions)
	}
}

// TestEmptyScheduleMatchesBaseline checks an all-whitespace schedule
// leaves fault injection fully disabled: the run is bit-identical to
// one with no Faults field at all.
func TestEmptyScheduleMatchesBaseline(t *testing.T) {
	base := fig2QuickConfig(StratDynamic)
	ws := base
	ws.Faults = "  ,  "
	_, a := runConfig(t, base)
	_, b := runConfig(t, ws)
	if b.FaultSchedule != "" {
		t.Errorf("whitespace schedule recorded as %q", b.FaultSchedule)
	}
	if !reflect.DeepEqual(stripWallTimes(a), stripWallTimes(b)) {
		t.Errorf("whitespace schedule changed the run:\n%s\n%s", a, b)
	}
}

// TestInertPlaneMatchesNoPlane checks the fault plane's message rules
// are invisible when none can fire. Fault mode changes a run by itself
// (retries, forward acks, timeouts), so both runs are in it: one whose
// only message rule is a drop with p=0, and one whose schedule holds no
// message rule at all, just a crash after the run ends. They must be
// bit-identical, which is what guarantees the plane consumes no
// randomness for unmatched messages.
func TestInertPlaneMatchesNoPlane(t *testing.T) {
	noRule := fig2QuickConfig(StratDynamic)
	noRule.Faults = "crash@1000s:mds0"
	withRule := noRule
	withRule.Faults = "drop@0:all"

	_, a := runConfig(t, noRule)
	_, b := runConfig(t, withRule)
	stripWallTimes(a)
	stripWallTimes(b)
	a.FaultSchedule, b.FaultSchedule = "", ""
	if !reflect.DeepEqual(a, b) {
		t.Errorf("inert plane changed the run:\n%+v\n%+v", a, b)
	}
}

// TestCrashAutoFailoverDynamic is the headline scenario: a scheduled
// mid-run crash of one node under the dynamic strategy is detected by
// the suspicion protocol, which re-delegates the dead node's subtrees
// to the least-loaded survivors, and the node rejoins warm at
// recovery.
func TestCrashAutoFailoverDynamic(t *testing.T) {
	const victim = 1
	cfg := fig2QuickConfig(StratDynamic)
	cfg.Duration = 12 * sim.Second
	cfg.Warmup = 2 * sim.Second
	cfg.Faults = "crash@4s-8s:mds1"
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Just before recovery the victim must have been stripped of its
	// delegations by the suspicion-triggered failover.
	rootsDuringOutage := -1
	cl.Eng.At(7900*sim.Millisecond, func() {
		rootsDuringOutage = len(cl.Dyn.Table.RootsOf(victim))
	})
	res := cl.Run()

	if len(res.Downs) == 0 || res.Downs[0].Node != victim {
		t.Fatalf("suspicion never confirmed the crash: downs=%v", res.Downs)
	}
	if res.Downs[0].At < 4*sim.Second {
		t.Errorf("down confirmed at %v, before the crash", res.Downs[0].At)
	}
	if rootsDuringOutage != 0 {
		t.Errorf("victim still owned %d subtrees during the outage", rootsDuringOutage)
	}
	if res.Suspicions == 0 {
		t.Error("no suspicion strikes recorded")
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].Warmed == 0 {
		t.Errorf("recovery did not warm the cache: %v", res.Recoveries)
	}
	stuck := 0
	for _, c := range cl.Clients {
		if c.Stats.Completed == 0 {
			stuck++
		}
	}
	if stuck > 0 {
		t.Fatalf("%d clients never completed an op through the outage", stuck)
	}
	if res.CompletedOps == nil {
		t.Fatal("availability series missing")
	}
	// Throughput recovers: the last full second must complete ops again.
	last := int(cfg.Duration/cfg.SeriesBucket) - 1
	if res.CompletedOps.Sum(last) == 0 {
		t.Error("no completions in the final bucket: cluster did not recover")
	}
}

// TestResultWallClockOnlyNondeterminism guards the stripWallTimes
// helper itself: two identical fault-free runs must agree on
// everything except the wall fields.
func TestResultWallClockOnlyNondeterminism(t *testing.T) {
	cfg := smallConfig(StratStatic)
	_, a := runConfig(t, cfg)
	_, b := runConfig(t, cfg)
	a.SetupWall, b.SetupWall = time.Duration(0), time.Duration(0)
	a.RunWall, b.RunWall = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault-free runs diverged:\n%+v\n%+v", a, b)
	}
}
