package cluster

import (
	"fmt"
	"math"
	"testing"
)

// Config.Shards is read by nothing: every run is one engine on one
// goroutine. bench/shard.go still sets it and reads Windows, so the
// tests in this file pin that setting it leaves a run exactly what the
// serial engine makes of it. They go with the field (ROADMAP, ledger
// item (f)).

// resultDigest runs cl and captures every headline number bit-exactly
// (floats by their IEEE-754 bits, not formatted approximations), so two
// digests being equal means the runs were observationally identical.
func resultDigest(cl *Cluster) string {
	r := cl.Run()
	return fmt.Sprintf("ops=%d served=%x hit=%x fwd=%x lat=%x p50=%x p99=%x migr=%d repl=%d net=%+v wr=%d",
		r.MeasuredOps, math.Float64bits(r.AvgThroughput),
		math.Float64bits(r.HitRate), math.Float64bits(r.ForwardFrac),
		math.Float64bits(r.MeanLatency), math.Float64bits(r.LatencyP50),
		math.Float64bits(r.LatencyP99), r.Migrations, r.Replications,
		r.Net, r.WritesAbsorbed)
}

func runDigest(t *testing.T, cfg Config) string {
	t.Helper()
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return resultDigest(cl)
}

// eachShardCount runs the subtests K0 and K4 of a determinism test. K0
// holds two runs of cfg to one digest; K4 sets Shards = 4 and holds the
// run to K0's digest.
func eachShardCount(t *testing.T, cfg Config, what string, digest func(*testing.T, Config) string) {
	t.Helper()
	var serial string
	t.Run("K0", func(t *testing.T) {
		serial = digest(t, cfg)
		if again := digest(t, cfg); again != serial {
			t.Fatalf("%s run not reproducible:\n%s\n%s", what, serial, again)
		}
	})
	t.Run("K4", func(t *testing.T) {
		if serial == "" {
			serial = digest(t, cfg)
		}
		sharded := cfg
		sharded.Shards = 4
		if got := digest(t, sharded); got != serial {
			t.Fatalf("%s run with Shards=4 differs from the serial run:\n%s\n%s", what, got, serial)
		}
	})
}

// TestShardedK1IsSerial: Shards=1, and Shards=8 on a one-node cluster,
// are the serial run bit for bit.
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
	clamped.Shards = 8
	ref := clamped
	ref.Shards = 0
	if got, want := runDigest(t, clamped), runDigest(t, ref); got != want {
		t.Errorf("one-node Shards=8 digest differs from serial:\n%s\n%s", got, want)
	}
}

// TestShardedDeterministic: repeated Shards=3 runs of the Figure 2
// quick config agree with each other and with the serial run on every
// headline number, for a table strategy and a hash strategy.
func TestShardedDeterministic(t *testing.T) {
	for _, s := range []string{StratDynamic, StratDirHash} {
		t.Run(s, func(t *testing.T) {
			cfg := fig2QuickConfig(s)
			serial := runDigest(t, cfg)
			cfg.Shards = 3
			a, b := runDigest(t, cfg), runDigest(t, cfg)
			if a != b || a != serial {
				t.Errorf("Shards=3 runs differ:\n%s\n%s\nserial:\n%s", a, b, serial)
			}
		})
	}
}

// TestShardedConservation checks the fabric's accounting identity, as
// TestMessageConservation does, on a run with Shards=4, on every
// strategy.
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
			conserved(t, cl)
		})
	}
}

// TestShardedCloseToSerial: a Shards=4 run is the serial run bit for
// bit, and reports no lookahead windows.
func TestShardedCloseToSerial(t *testing.T) {
	cfg := fig2QuickConfig(StratDynamic)
	serial := runDigest(t, cfg)
	cfg.Shards = 4
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultDigest(cl); got != serial {
		t.Errorf("Shards=4 digest differs from serial:\n%s\n%s", got, serial)
	}
	if n := cl.Windows(); n != 0 {
		t.Errorf("Windows() = %d, want 0", n)
	}
}

// TestShardedFaults runs a crash/recover schedule with message drops at
// Shards=2: deterministic, equal to the serial run, and draining clean.
func TestShardedFaults(t *testing.T) {
	cfg := fig2QuickConfig(StratDynamic)
	cfg.Faults = "crash@5s:mds2,recover@8s:mds2,drop@0.005:all"
	serial := runDigest(t, cfg)
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
	if _, b := run(); a != b || a != serial {
		t.Errorf("faulty Shards=2 runs differ:\n%s\n%s\nserial:\n%s", a, b, serial)
	}
}

// TestShardedEventCount: a Shards=4 run dispatches exactly the serial
// run's events.
func TestShardedEventCount(t *testing.T) {
	cfg := fig2QuickConfig(StratDynamic)
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
	if se, pe := serialCl.ExecutedEvents(), shardedCl.ExecutedEvents(); se == 0 || pe != se {
		t.Errorf("Shards=4 executed %d events, serial %d", pe, se)
	}
}
