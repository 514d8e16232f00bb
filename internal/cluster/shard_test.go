package cluster

import (
	"fmt"
	"math"
	"testing"

	"dynmds/internal/net"
	"dynmds/internal/sim"
)

// resultDigest runs cl and captures every headline number bit-exactly
// (floats by their IEEE-754 bits, not formatted approximations), so two
// digests being equal means the runs were observationally identical.
func resultDigest(cl *Cluster) string {
	r := cl.Run()
	var callbacks uint64
	for _, n := range cl.Nodes {
		callbacks += n.Stats.SizeCallbacks
	}
	return fmt.Sprintf("ops=%d served=%x hit=%x fwd=%x lat=%x p50=%x p99=%x migr=%d repl=%d net=%+v wr=%d cb=%d",
		r.MeasuredOps, math.Float64bits(r.AvgThroughput),
		math.Float64bits(r.HitRate), math.Float64bits(r.ForwardFrac),
		math.Float64bits(r.MeanLatency), math.Float64bits(r.LatencyP50),
		math.Float64bits(r.LatencyP99), r.Migrations, r.Replications,
		r.Net, r.WritesAbsorbed, callbacks)
}

func runDigest(t *testing.T, cfg Config) string {
	t.Helper()
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return resultDigest(cl)
}

// TestShardedK1IsSerial pins the degenerate-shard contract: Shards=1
// (and any count that clamps to 1) must use the serial engine verbatim
// and produce bit-identical results to Shards=0.
func TestShardedK1IsSerial(t *testing.T) {
	base := fig2QuickConfig(StratDynamic)
	serial := runDigest(t, base)

	one := base
	one.Shards = 1
	if got := runDigest(t, one); got != serial {
		t.Errorf("Shards=1 digest differs from serial:\n%s\n%s", got, serial)
	}

	clamped := base
	clamped.NumMDS = 1
	clamped.Shards = 8 // clamps to NumMDS, then to serial
	ref := clamped
	ref.Shards = 0
	if got, want := runDigest(t, clamped), runDigest(t, ref); got != want {
		t.Errorf("clamped-to-1 digest differs from serial:\n%s\n%s", got, want)
	}
}

// TestShardedDeterministic pins bit-reproducibility for a fixed shard
// count: repeated K=3 runs of the Figure 2 quick config must agree on
// every headline number, for both a table strategy (frozen-memo path)
// and a hash strategy (pure-function path).
func TestShardedDeterministic(t *testing.T) {
	for _, s := range []string{StratDynamic, StratDirHash} {
		t.Run(s, func(t *testing.T) {
			cfg := fig2QuickConfig(s)
			cfg.Shards = 3
			a, b := runDigest(t, cfg), runDigest(t, cfg)
			if a != b {
				t.Errorf("K=3 runs differ:\n%s\n%s", a, b)
			}
		})
	}
}

// TestShardedConservation checks the fabric's accounting identity holds
// across the mailbox path: after a sharded run drains, every message
// (intra- and cross-shard) was delivered exactly once and no pooled
// envelope leaked on any shard.
func TestShardedConservation(t *testing.T) {
	for _, s := range Strategies {
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			cfg := fig2QuickConfig(s)
			cfg.Shards = 4
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cl.Run()
			cl.Drain()
			if n := cl.Fab.PendingMail(); n != 0 {
				t.Errorf("pending cross-shard mail after drain = %d", n)
			}
			if n := cl.Fab.InFlight(); n != 0 {
				t.Errorf("in-flight after drain = %d", n)
			}
			if n := cl.Fab.LiveEnvelopes(); n != 0 {
				t.Errorf("live envelopes after drain = %d", n)
			}
			for c := 0; c < net.NumClasses; c++ {
				cs := cl.Fab.Class(net.Class(c))
				if cs.Sent != cs.Delivered {
					t.Errorf("%s: sent %d != delivered %d", net.Class(c), cs.Sent, cs.Delivered)
				}
			}
			var issued, completed uint64
			for _, c := range cl.Clients {
				issued += c.Stats.Issued
				completed += c.Stats.Completed
			}
			req := cl.Fab.Class(net.Request)
			rep := cl.Fab.Class(net.Reply)
			if req.Sent != issued {
				t.Errorf("requests sent %d != issued %d", req.Sent, issued)
			}
			if completed != rep.Sent {
				t.Errorf("completed %d != replies sent %d", completed, rep.Sent)
			}
		})
	}
}

// TestShardedCloseToSerial is a semantic sanity check: sharding changes
// only the execution order of same-timestamp events, so the workload a
// sharded run measures must land within a tight band of the serial
// run's. (Bit-identity across different K is not expected; bounded
// drift is.)
func TestShardedCloseToSerial(t *testing.T) {
	cfg := fig2QuickConfig(StratDynamic)
	serialCl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial := serialCl.Run()
	cfg.Shards = 4
	shardedCl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded := shardedCl.Run()
	if sharded.MeasuredOps == 0 {
		t.Fatal("sharded run measured no ops")
	}
	// Same-timestamp reordering feeds back through the balancer's
	// migration decisions, so a few percent of drift is expected; an
	// order-of-magnitude gap would mean lost or duplicated work.
	drift := math.Abs(float64(sharded.MeasuredOps)-float64(serial.MeasuredOps)) / float64(serial.MeasuredOps)
	if drift > 0.10 {
		t.Errorf("sharded ops %d drifted %.1f%% from serial %d",
			sharded.MeasuredOps, drift*100, serial.MeasuredOps)
	}
	if math.Abs(sharded.HitRate-serial.HitRate) > 0.02 {
		t.Errorf("hit rate: sharded %.4f vs serial %.4f", sharded.HitRate, serial.HitRate)
	}
	if shardedCl.Windows() == 0 {
		t.Error("sharded run executed no lookahead windows")
	}
}

// TestShardedFaults runs a crash/recover schedule with message drops at
// K>1: the fault plane forces the windowed executor onto one goroutine,
// which must stay deterministic and drain cleanly.
func TestShardedFaults(t *testing.T) {
	cfg := fig2QuickConfig(StratDynamic)
	cfg.Faults = "crash@5s:mds2,recover@8s:mds2,drop@0.005:all"
	cfg.Shards = 2

	run := func() (*Cluster, string) {
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := resultDigest(cl)
		return cl, d
	}
	cl, a := run()
	cl.Drain()
	if err := cl.DrainCheck(); err != nil {
		t.Errorf("drain check: %v", err)
	}
	if len(cl.Failures) == 0 {
		t.Error("no crash was injected")
	}
	_, b := run()
	if a != b {
		t.Errorf("faulty K=2 runs differ:\n%s\n%s", a, b)
	}
}

// TestShardedRejectsUnshardableConfigs pins the upfront validation.
func TestShardedRejectsUnshardableConfigs(t *testing.T) {
	cfg := fig2QuickConfig(StratDynamic)
	cfg.Shards = 2
	cfg.OSDs = 4
	if _, err := New(cfg); err == nil {
		t.Error("expected error for sharded run with shared OSD pool")
	}
}

// TestShardedEventCount checks ExecutedEvents sums shard and global
// heaps and roughly matches the serial event count for the same work.
func TestShardedEventCount(t *testing.T) {
	cfg := fig2QuickConfig(StratDynamic)
	cfg.Duration = 4 * sim.Second
	cfg.Warmup = 2 * sim.Second
	serialCl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serialCl.Run()
	cfg.Shards = 4
	shardedCl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shardedCl.Run()
	se, pe := serialCl.ExecutedEvents(), shardedCl.ExecutedEvents()
	if pe == 0 || se == 0 {
		t.Fatalf("zero executed events: serial %d sharded %d", se, pe)
	}
	// Sharded runs execute strictly more events — every cross-shard
	// message costs a sender-side departure event on top of the
	// receiver-side delivery — but the total must stay the same order.
	if ratio := float64(pe) / float64(se); ratio < 1.0 || ratio > 2.0 {
		t.Errorf("sharded executed %d events vs serial %d (ratio %.3f)", pe, se, ratio)
	}
}
