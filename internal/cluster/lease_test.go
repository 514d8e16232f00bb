package cluster

import (
	"fmt"
	"testing"

	"dynmds/internal/client"
	"dynmds/internal/lease"
	"dynmds/internal/msg"
	"dynmds/internal/net"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// leaseConfig is the open-loop config with the lease plane and fan-out
// on, a read crowd against one home (lease territory) followed by a
// mutation churn (recall territory).
func leaseConfig(strategy string) Config {
	cfg := openLoopConfig(strategy)
	// Keep the run under cluster capacity: the hotspot split counts a
	// completion against the hot record only while the act is live, so
	// replies must return within the act window, and the drain check
	// needs the backlog cleared. openLoopConfig's rate 20 with the
	// crowd's x2 multiplier would swamp the 4-node cluster.
	cfg.OpenLoop.Rate = 2
	cfg.Lease.Enabled = true
	cfg.Lease.Fanout = true
	cfg.Lease.Duration = 2 * sim.Second
	cfg.Acts = []ActConfig{
		{Name: "crowd", From: sim.Second, To: 4 * sim.Second, RateMul: 2,
			MixStat: 90, MixReaddir: 10, FileSkew: -1,
			Hotspot: "/home/u0000", HotFrac: 0.7},
		{Name: "churn", From: 4 * sim.Second, To: 6 * sim.Second,
			MixStat: 40, MixChmod: 30, MixCreate: 30, FileSkew: -1},
	}
	return cfg
}

// leaseDigest extends the open-loop digest with every lease counter, so
// the determinism tests pin the whole protocol, not just the traffic.
func leaseDigest(r *Result) string {
	return fmt.Sprintf("%s hits=%d grants=%d recalls=%d recalled=%d acks=%d fanouts=%d hot=%d+%d",
		openLoopDigest(r), r.LeaseHits, r.LeaseGrants, r.LeaseRecalls,
		r.LeaseRecalled, r.LeaseAcks, r.ReplicaFanouts,
		r.HotspotLocal, r.HotspotRemote)
}

// TestLeaseGrantRecallAck runs the full protocol and checks the
// counters against the fabric's per-class accounting: every recall
// delivered is acked exactly once, the registry bump count matches the
// deliveries, and no lease dangles after the drain.
func TestLeaseGrantRecallAck(t *testing.T) {
	cl, err := New(leaseConfig(StratDynamic))
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Run()
	if res.LeaseGrants == 0 {
		t.Fatal("no leases granted")
	}
	if res.LeaseHits == 0 {
		t.Fatal("no arrivals served from a lease")
	}
	if res.LeaseRecalls == 0 {
		t.Fatal("mutation churn sent no recalls")
	}
	if res.ReplicaFanouts == 0 {
		t.Fatal("hot directory never fanned out")
	}
	if res.HotspotLocal == 0 || res.HotspotRemote == 0 {
		t.Fatalf("hotspot split degenerate: %d local, %d remote",
			res.HotspotLocal, res.HotspotRemote)
	}
	cl.Drain()
	// Fault-free: every lease-class message sent is delivered, acks
	// mirror recall deliveries, and the edge counted each delivery.
	for _, c := range []net.Class{net.LeaseGrant, net.LeaseRecall, net.LeaseAck} {
		cs := cl.Fab.Class(c)
		if cs.Sent == 0 {
			t.Errorf("%v: no traffic", c)
		}
		if cs.Sent != cs.Delivered+cs.Dropped {
			t.Errorf("%v: sent %d != delivered %d + dropped %d", c, cs.Sent, cs.Delivered, cs.Dropped)
		}
		if cs.Dropped != 0 {
			t.Errorf("%v: %d dropped on a fault-free run", c, cs.Dropped)
		}
	}
	recall := cl.Fab.Class(net.LeaseRecall)
	ack := cl.Fab.Class(net.LeaseAck)
	if ack.Sent != recall.Delivered {
		t.Errorf("acks %d != recalls delivered %d", ack.Sent, recall.Delivered)
	}
	if cl.Lease.Recalled != recall.Delivered {
		t.Errorf("edge recall count %d != recalls delivered %d", cl.Lease.Recalled, recall.Delivered)
	}
	if err := cl.DrainCheck(); err != nil {
		t.Error(err)
	}
	if n := cl.Lease.Dangling(cl.Eng.Now()); n != 0 {
		t.Errorf("%d dangling leases after drain", n)
	}
}

// TestLeaseDeterministic pins bit-reproducibility of the whole lease
// protocol, with Config.Shards unset and set.
func TestLeaseDeterministic(t *testing.T) {
	eachShardCount(t, leaseConfig(StratDynamic), "lease", func(t *testing.T, cfg Config) string {
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return leaseDigest(cl.Run())
	})
}

// TestLeaseExpiryVsRecall drives the race between natural expiry and
// recall: a 1ms lifetime means most leases lapse before the mutation
// that would recall them, so recalls routinely chase already-expired
// slots. That must stay harmless — accounting intact, nothing dangling.
func TestLeaseExpiryVsRecall(t *testing.T) {
	cfg := leaseConfig(StratDynamic)
	cfg.Lease.Duration = sim.Millisecond
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Run()
	if res.LeaseGrants == 0 || res.LeaseRecalls == 0 {
		t.Fatalf("race not exercised: %d grants, %d recalls", res.LeaseGrants, res.LeaseRecalls)
	}
	cl.Drain()
	recall := cl.Fab.Class(net.LeaseRecall)
	if ack := cl.Fab.Class(net.LeaseAck); ack.Sent != recall.Delivered {
		t.Errorf("acks %d != recalls delivered %d", ack.Sent, recall.Delivered)
	}
	if err := cl.DrainCheck(); err != nil {
		t.Error(err)
	}
	if n := cl.Lease.Dangling(cl.Eng.Now()); n != 0 {
		t.Errorf("%d dangling leases after drain", n)
	}
}

// TestLeaseOffInert: with the plane disabled the lease classes carry
// zero traffic, no plane is built, and no counter moves — the disabled
// configuration is the bit-identical pre-lease baseline.
func TestLeaseOffInert(t *testing.T) {
	cfg := leaseConfig(StratDynamic)
	cfg.Lease = lease.Config{}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Run()
	if cl.Lease != nil {
		t.Fatal("disabled config built a lease plane")
	}
	if res.LeaseHits+res.LeaseGrants+res.LeaseRecalls+res.LeaseRecalled+res.LeaseAcks+res.ReplicaFanouts != 0 {
		t.Fatalf("lease counters moved on a disabled run: %+v", res)
	}
	for _, c := range []net.Class{net.LeaseGrant, net.LeaseRecall, net.LeaseAck} {
		if cs := cl.Fab.Class(c); cs.Sent != 0 {
			t.Errorf("%v: %d messages on a disabled run", c, cs.Sent)
		}
	}
	// The hotspot split still works without leases: everything remote.
	if res.HotspotLocal != 0 || res.HotspotRemote == 0 {
		t.Fatalf("hotspot split wrong without leases: %d local, %d remote",
			res.HotspotLocal, res.HotspotRemote)
	}
}

// TestLeasePlaneFootprint is the memory gate of the traffic plane: its
// structural footprint per client, with the lease slab off and on (the
// slab is two 12 B slots per client), as the run leaves it — about 2 %
// of the clients can arrive by its horizon, so only they hold a
// hint-table word, and fewer have been answered — and again in a run
// every client can arrive in, once every client has been handed its
// hint record, the most the plane can reach. Limits are the measured
// value plus ~10 % as run and ~15 % answered, so no per-client boxed
// state can sneak in. The
// per-client slope does not depend on the population size; 100k
// clients keeps the fixed tenant tables negligible.
func TestLeasePlaneFootprint(t *testing.T) {
	const clients = 100_000
	for _, tc := range []struct {
		name           string
		leases, fanout bool
		limit, spoken  float64 // measured 4.33 / 29.22 B lease-off, 28.33 / 53.22 B lease-on
	}{
		{"dumb", false, false, 4.8, 34},
		{"leases", true, false, 31.2, 61},
		{"fanout", false, true, 4.8, 34},
		{"both", true, true, 31.2, 61},
	} {
		cfg := openLoopConfig(StratStatic)
		cfg.Duration = 2 * sim.Second
		cfg.Warmup = sim.Second
		cfg.OpenLoop = &client.PopulationConfig{
			Clients: clients,
			Rate:    0.01,
			Tenant:  workload.TenantConfig{TenantSkew: 1, FileSkew: 1},
		}
		cfg.Lease.Enabled = tc.leases
		cfg.Lease.Fanout = tc.fanout
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := cl.Run()
		bpc := float64(res.PopFootprint) / clients
		if bpc > tc.limit {
			t.Errorf("%s: plane %.1f B/client exceeds the %.0f B gate", tc.name, bpc, tc.limit)
		}
		// An inter-arrival is at most an hour, so past it every client's
		// first arrival is stored and every client holds a word. Each
		// reply answers a live request, or the lifecycle refuses it and
		// claims no hint record.
		cfg.Duration = sim.Hour + sim.Second
		full, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		full.StartEndure()
		for c := 0; c < clients; c++ {
			req := &msg.Request{ID: 1, Client: c}
			if !full.Pop.OnReply(&msg.Reply{Req: req, ID: req.ID, Client: c, Hints: []msg.Hint{{Ino: 1}}}) {
				t.Fatalf("%s: the reply to client %d was refused", tc.name, c)
			}
		}
		all := float64(full.Pop.FootprintBytes()) / clients
		if all <= bpc {
			t.Errorf("%s: answering every client left the plane at %.1f B/client, no more than the run's %.1f", tc.name, all, bpc)
		}
		if all > tc.spoken {
			t.Errorf("%s: plane %.1f B/client with every client answered exceeds the %.0f B gate", tc.name, all, tc.spoken)
		}
		t.Logf("%s: %.2f B/client as run, %.2f with every client answered", tc.name, bpc, all)
	}
}
