package client

import (
	"testing"

	"dynmds/internal/msg"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// answerNet answers every request once, a fixed delay after its send,
// through reply (the model's OnReply), reusing one reply struct; with
// log set it keeps every struct sent.
type answerNet struct {
	eng   *sim.Engine
	n     int
	delay sim.Time
	reply func(*msg.Reply) bool
	rep   msg.Reply
	log   bool
	sent  []*msg.Request
}

func (a *answerNet) NumMDS() int { return a.n }

func (a *answerNet) Send(_ int, req *msg.Request) {
	if a.log {
		a.sent = append(a.sent, req)
	}
	a.eng.AfterCall(a.delay, answerFire, a, req)
}

func answerFire(x, y any) {
	a, req := x.(*answerNet), y.(*msg.Request)
	a.rep = msg.Reply{Req: req, Client: req.Client, ID: req.ID, Issued: req.Issued, Completed: a.eng.Now()}
	a.reply(&a.rep)
}

// TestRetriesNeverReuseARequest: while retries are armed no request
// struct serves two operations, in either model — an MDS forward
// watchdog may still hold one answered on its first send, and would
// re-dispatch it carrying the next operation.
func TestRetriesNeverReuseARequest(t *testing.T) {
	_, f := testTree(t)
	eng := sim.NewEngine()
	closed := &answerNet{eng: eng, n: 2, delay: 500 * sim.Microsecond, log: true}
	c := New(0, eng, Config{ThinkMean: sim.Millisecond, RetryTimeout: 10 * sim.Millisecond}, sim.NewRNG(3), closed,
		partition.FileHash{N: 2}, fixedGen{workload.Op{Op: msg.Stat, Target: f}})
	closed.reply = c.OnReply
	c.Start(0)

	cfg := PopulationConfig{Clients: 50, Rate: 20, Tenant: workload.TenantConfig{Tenants: 2, WorkingSet: 8}, MixStat: 1}
	_, homes := popTree(t, 4)
	open := &answerNet{eng: eng, n: 4, delay: 300 * sim.Microsecond, log: true}
	pop := NewPopulation(cfg, eng, open, partition.FileHash{N: 4}, workload.NewTenants(cfg.Tenant, cfg.Clients, homes, 5),
		10*sim.Millisecond, 5)
	open.reply = pop.OnReply
	pop.Start()

	eng.RunUntil(sim.Second)
	for _, m := range []struct {
		name string
		net  *answerNet
		done uint64
	}{{"closed", closed, c.Counts().Completed}, {"open", open, pop.Counts().Completed}} {
		if m.done < 100 || m.done+2 < uint64(len(m.net.sent)) {
			t.Fatalf("%s loop: %d completions of %d sends, want many and every send answered", m.name, m.done, len(m.net.sent))
		}
		seen := make(map[*msg.Request]bool, len(m.net.sent))
		for _, req := range m.net.sent {
			if seen[req] {
				t.Fatalf("%s loop: a request struct was sent for two operations while retries are armed", m.name)
			}
			seen[req] = true
		}
	}
}

// TestClosedLoopCycleAllocFree: a fault-free closed-loop client's
// steady-state issue → reply → think cycle allocates nothing; its one
// request struct is recycled.
func TestClosedLoopCycleAllocFree(t *testing.T) {
	_, f := testTree(t)
	eng := sim.NewEngine()
	net := &answerNet{eng: eng, n: 2, delay: 200 * sim.Microsecond}
	c := New(0, eng, Config{ThinkMean: sim.Millisecond}, sim.NewRNG(7), net,
		partition.FileHash{N: 2}, fixedGen{workload.Op{Op: msg.Stat, Target: f}})
	net.reply = c.OnReply
	c.Start(0)
	eng.RunUntil(100 * sim.Millisecond)
	before := c.Counts().Completed
	now := eng.Now()
	allocs := testing.AllocsPerRun(20, func() {
		now += 10 * sim.Millisecond
		eng.RunUntil(now)
	})
	if allocs != 0 {
		t.Fatalf("the closed-loop cycle allocates: %v allocs per 10ms window", allocs)
	}
	if c.Counts().Completed == before {
		t.Fatal("no completions during the pinned window")
	}
}

// TestRetryRecordAllocsBlocks: while retries are armed, a retry record
// goes back to its lifecycle's pool when its timer finds the request
// answered, so over a window where every reply beats the timeout the
// lifecycle costs only the requests themselves — never recycled while
// retries are armed, they come from the pool's blocks of 64.
func TestRetryRecordAllocsBlocks(t *testing.T) {
	_, f := testTree(t)
	eng := sim.NewEngine()
	net := &answerNet{eng: eng, n: 2, delay: 200 * sim.Microsecond}
	c := New(0, eng, Config{ThinkMean: sim.Millisecond, RetryTimeout: 10 * sim.Millisecond}, sim.NewRNG(7), net,
		partition.FileHash{N: 2}, fixedGen{workload.Op{Op: msg.Stat, Target: f}})
	net.reply = c.OnReply
	c.Start(0)
	eng.RunUntil(100 * sim.Millisecond)
	now := eng.Now()
	var sends uint64
	allocs := testing.AllocsPerRun(1, func() {
		before := c.Counts().Issued
		now += sim.Second
		eng.RunUntil(now)
		sends = c.Counts().Issued - before
	})
	if limit := sends/64 + 8; allocs > float64(limit) {
		t.Fatalf("%d retry-armed sends took %.0f mallocs, want at most %d", sends, allocs, limit)
	}
	if cs := c.Counts(); sends < 500 || cs.Retries != 0 || cs.TimedOut != 0 {
		t.Fatalf("%d sends in the window, %d retries, %d timed out: want many sends, every reply in time", sends, cs.Retries, cs.TimedOut)
	}
}

// TestFreeRequestsHoldNoName: a request back in its lifecycle's pool
// carries no name, in either model, so a free struct holds no issuer's
// block of names alive. After a drained run of creates and renames
// every struct the pool hands out has an empty NewName: the free ones
// were cleared, and any past them are fresh.
func TestFreeRequestsHoldNoName(t *testing.T) {
	_, f := testTree(t)
	eng := sim.NewEngine()
	closed := &answerNet{eng: eng, n: 2, delay: 500 * sim.Microsecond}
	c := New(0, eng, Config{ThinkMean: sim.Millisecond}, sim.NewRNG(3), closed,
		partition.FileHash{N: 2}, fixedGen{workload.Op{Op: msg.Create, Target: f.Parent(), NewName: "n"}})
	closed.reply = c.OnReply
	c.Start(0)

	cfg := PopulationConfig{Clients: 50, Rate: 200, Tenant: workload.TenantConfig{Tenants: 2, WorkingSet: 8},
		MixStat: 1, MixCreate: 1, MixRename: 1}
	_, homes := popTree(t, 4)
	open := &answerNet{eng: eng, n: 4, delay: 30 * sim.Millisecond}
	pop := NewPopulation(cfg, eng, open, partition.FileHash{N: 4}, workload.NewTenants(cfg.Tenant, cfg.Clients, homes, 5), 0, 5)
	open.reply = pop.OnReply
	pop.Start()

	eng.RunUntil(sim.Second)
	c.Stop()
	pop.Stop()
	eng.RunUntil(2 * sim.Second)
	for _, m := range []struct {
		name string
		reqs *Requests
	}{{"closed", &c.reqs}, {"open", &pop.reqs}} {
		if m.reqs.Completed < 100 || m.reqs.Outstanding() != 0 || m.reqs.pool.Lent() != 0 {
			t.Fatalf("%s loop: %d completed, %d outstanding, %d lent: want many completed and the run drained",
				m.name, m.reqs.Completed, m.reqs.Outstanding(), m.reqs.pool.Lent())
		}
		for i := uint64(0); i < m.reqs.Issued; i++ {
			if req := m.reqs.pool.Get(); req.NewName != "" {
				t.Fatalf("%s loop: a free request still carries the name %q", m.name, req.NewName)
			}
		}
	}
}
