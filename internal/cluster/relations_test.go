package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

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
					g, w := reflect.ValueOf(stripWallTimes(got)).Elem(), reflect.ValueOf(stripWallTimes(want)).Elem()
					for i := 0; i < g.NumField(); i++ {
						if gf, wf := g.Field(i).Interface(), w.Field(i).Interface(); !reflect.DeepEqual(gf, wf) {
							t.Errorf("Result.%s: DynamicSubtree %v, StaticSubtree %v", g.Type().Field(i).Name, gf, wf)
						}
					}
				})
			}
		}
	}
}
