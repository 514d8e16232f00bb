package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"dynmds/internal/net"
	"dynmds/internal/sim"
)

// diffResults reports every Result field in which got differs from
// want, wall times aside.
func diffResults(t *testing.T, got, want *Result, what string) {
	t.Helper()
	g, w := reflect.ValueOf(stripWallTimes(got)).Elem(), reflect.ValueOf(stripWallTimes(want)).Elem()
	for i := 0; i < g.NumField(); i++ {
		if gf, wf := g.Field(i).Interface(), w.Field(i).Interface(); !reflect.DeepEqual(gf, wf) {
			t.Errorf("Result.%s: %s %v, want %v", g.Type().Field(i).Name, what, gf, wf)
		}
	}
}

// TestStaticIsDynamicWithoutMechanisms pins the paper's experimental
// design (§5): the static comparator is the dynamic subtree partition
// that "does not employ load balancing to adjust the initial
// partition". StaticSubtree must give the same Result, field for field
// (Strategy aside), as (a) DynamicSubtree with neither balancer nor
// traffic control, and (b) plain DynamicSubtree on a single node, where
// neither has a peer to act on. Closed and open loop, the latter with
// leases and replica fan-out, over three seeds. A one-node cluster arms
// only traffic control's lease rule, whatever the strategy, so relation
// (b) holds with no exception.
func TestStaticIsDynamicWithoutMechanisms(t *testing.T) {
	openLoop := func(strategy string) Config {
		cfg := openLoopConfig(strategy)
		cfg.Lease.Enabled = true
		cfg.Lease.Fanout = true
		return cfg
	}
	bare := func(cfg Config) Config {
		cfg.Balancer, cfg.Traffic = nil, nil
		return cfg
	}
	single := func(cfg Config) Config {
		cfg.NumMDS = 1
		return cfg
	}
	for _, loop := range []struct {
		name string
		cfg  func(strategy string) Config
	}{{"closed", smallConfig}, {"open", openLoop}} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, rel := range []struct {
				name            string
				static, dynamic func(Config) Config
			}{
				{"a:no-mechanisms", func(c Config) Config { return c }, bare},
				{"b:one-node", single, single},
			} {
				t.Run(fmt.Sprintf("%s/seed%d/%s", loop.name, seed, rel.name), func(t *testing.T) {
					static, dynamic := rel.static(loop.cfg(StratStatic)), rel.dynamic(loop.cfg(StratDynamic))
					static.Seed, dynamic.Seed = seed, seed
					_, want := runConfig(t, static)
					_, got := runConfig(t, dynamic)
					want.Strategy, got.Strategy = "", ""
					diffResults(t, got, want, "DynamicSubtree")
				})
			}
		}
	}
}

// TestFaultAfterTheRunIsNoSchedule pins relation (c) with its named
// exception: a closed loop whose only fault lies after the run ends
// equals the run with no schedule in every Result field but three a
// schedule brings by itself — its text, the completion series it
// records, and the forward acks it arms (counted in the fabric's totals
// too). Both runs retry alike, the retries counted on both.
func TestFaultAfterTheRunIsNoSchedule(t *testing.T) {
	cfg := Default()
	cfg.Client.RetryTimeout = 150 * sim.Millisecond
	cfg.Duration, cfg.Warmup = 10*sim.Second, 5*sim.Second
	_, plain := runConfig(t, cfg)
	cfg.Faults = "crash@900s:mds1"
	_, late := runConfig(t, cfg)
	if plain.Retries == 0 {
		t.Fatal("the run retried nothing: the relation shows nothing of retries")
	}
	ack := &late.Net.PerClass[net.FwdAck]
	if ack.Sent == 0 {
		t.Fatal("the schedule armed no forward acks: the exception is stale")
	}
	late.Net.Messages -= ack.Sent
	late.Net.Bytes -= ack.Bytes
	*ack = net.ClassStats{}
	late.FaultSchedule, late.CompletedOps = "", nil
	diffResults(t, late, plain, "with crash@900s")
}

// TestClosedLoopRetriesAreCounted: a closed loop that arms retries
// without a fault schedule reports them — every request over the client
// edge is an issue or a retry.
func TestClosedLoopRetriesAreCounted(t *testing.T) {
	cfg := Default()
	cfg.Client.RetryTimeout = 20 * sim.Millisecond
	cfg.Duration, cfg.Warmup = 4*sim.Second, sim.Second
	_, r := runConfig(t, cfg)
	sent := r.Net.PerClass[net.Request].Sent
	if r.Retries == 0 || r.Retries != sent-r.Issued {
		t.Fatalf("%d retries, want the %d requests over the edge less the %d issued", r.Retries, sent, r.Issued)
	}
}
