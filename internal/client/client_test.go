package client

import (
	"testing"

	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// fakeNet records sends and can synthesize replies.
type fakeNet struct {
	n     int
	sends []struct {
		mds int
		req *msg.Request
	}
}

// emptyTree returns a tree holding only the root directory.
func emptyTree() *namespace.Tree {
	f, _ := namespace.NewBuilder().Freeze()
	return namespace.NewOverlay(f)
}

func (f *fakeNet) Send(i int, req *msg.Request) {
	f.sends = append(f.sends, struct {
		mds int
		req *msg.Request
	}{i, req})
}
func (f *fakeNet) NumMDS() int { return f.n }

// fixedGen always returns the same op.
type fixedGen struct{ op workload.Op }

func (g fixedGen) Next(now sim.Time, r *sim.RNG) (workload.Op, bool) { return g.op, true }

// replyTo builds a reply the way the MDS does: identity and issue time
// copied by value from the request.
func replyTo(req *msg.Request, completed sim.Time) *msg.Reply {
	return &msg.Reply{
		Req: req, Client: req.Client, ID: req.ID,
		Issued: req.Issued, Completed: completed,
	}
}

func testTree(t *testing.T) (*namespace.Tree, *namespace.Inode) {
	t.Helper()
	tr := emptyTree()
	d, err := tr.Mkdir(tr.Root, "home")
	if err != nil {
		t.Fatal(err)
	}
	u, err := tr.Mkdir(d, "u0")
	if err != nil {
		t.Fatal(err)
	}
	f, err := tr.Create(u, "f")
	if err != nil {
		t.Fatal(err)
	}
	return tr, f
}

func TestClientComputableDirection(t *testing.T) {
	tr, f := testTree(t)
	_ = tr
	eng := sim.NewEngine()
	net := &fakeNet{n: 5}
	strat := partition.FileHash{N: 5}
	c := New(0, eng, Config{ThinkMean: sim.Millisecond}, sim.NewRNG(1), net, strat,
		fixedGen{workload.Op{Op: msg.Stat, Target: f}})
	c.Start(0)
	eng.RunUntil(sim.Millisecond)
	if len(net.sends) != 1 {
		t.Fatalf("sends = %d", len(net.sends))
	}
	if got, want := net.sends[0].mds, strat.Authority(f); got != want {
		t.Fatalf("directed to %d, want computed authority %d", got, want)
	}
	// Create ops route by would-be name.
	net2 := &fakeNet{n: 5}
	c2 := New(1, eng, Config{}, sim.NewRNG(2), net2, strat,
		fixedGen{workload.Op{Op: msg.Create, Target: f.Parent(), NewName: "x"}})
	c2.Start(0)
	eng.Run()
	if got, want := net2.sends[0].mds, strat.AuthorityForName(f.Parent(), "x"); got != want {
		t.Fatalf("create directed to %d, want %d", got, want)
	}
}

func TestDeepestKnownPrefixDirection(t *testing.T) {
	tr, f := testTree(t)
	_ = tr
	eng := sim.NewEngine()
	net := &fakeNet{n: 8}
	strat := partition.NewStaticSubtree(8, tr, 2)
	c := New(0, eng, Config{ThinkMean: sim.Millisecond}, sim.NewRNG(3), net, strat,
		fixedGen{workload.Op{Op: msg.Stat, Target: f}})

	// With no knowledge, direction is random; with a hint on the
	// parent dir, direction follows the hint.
	c.hints.Put(0, msg.Hint{Ino: f.Parent().ID, Authority: 6})
	c.Start(0)
	eng.RunUntil(sim.Millisecond)
	if net.sends[0].mds != 6 {
		t.Fatalf("directed to %d, want hinted 6", net.sends[0].mds)
	}
	// A deeper hint on the target itself wins.
	rep := replyTo(net.sends[0].req, eng.Now())
	rep.Hints = []msg.Hint{{Ino: f.ID, Authority: 3}}
	c.OnReply(rep)
	eng.Run()
	if net.sends[1].mds != 3 {
		t.Fatalf("directed to %d, want deeper hint 3", net.sends[1].mds)
	}
	// Replicated hints spread direction across the cluster.
	c.hints.Put(0, msg.Hint{Ino: f.ID, Authority: 3, Replicated: true})
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		req := &msg.Request{Target: f, Op: msg.Stat}
		seen[c.direct(req)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("replicated direction not spread: %v", seen)
	}
}

func TestClosedLoopAndLatency(t *testing.T) {
	tr, f := testTree(t)
	_ = tr
	eng := sim.NewEngine()
	net := &fakeNet{n: 2}
	strat := partition.FileHash{N: 2}
	c := New(0, eng, Config{ThinkMean: sim.Millisecond}, sim.NewRNG(4), net, strat,
		fixedGen{workload.Op{Op: msg.Stat, Target: f}})
	c.Start(0)
	eng.RunUntil(sim.Millisecond)
	// One outstanding request; no more until the reply arrives.
	if c.Counts().Issued != 1 {
		t.Fatalf("issued = %d", c.Counts().Issued)
	}
	req := net.sends[0].req
	c.OnReply(replyTo(req, req.Issued+500*sim.Microsecond))
	eng.RunUntil(20 * sim.Millisecond)
	if c.Counts().Completed != 1 {
		t.Fatalf("completed = %d", c.Counts().Completed)
	}
	if c.Counts().Issued < 2 {
		t.Fatal("no follow-up request after reply")
	}
	c.Stop()
	issued := c.Counts().Issued
	// A stale duplicate of the first operation (id 1, gen 0) must not
	// match whatever is in flight now.
	c.OnReply(&msg.Reply{Client: 0, ID: 1, Completed: eng.Now()})
	eng.Run()
	if c.Counts().Issued != issued {
		t.Fatal("stopped client issued more requests")
	}
}

func TestClientKnownLocationsBound(t *testing.T) {
	tr, f := testTree(t)
	_ = tr
	eng := sim.NewEngine()
	net := &fakeNet{n: 2}
	c := New(0, eng, Config{KnownCap: 4}, sim.NewRNG(5), net,
		partition.NewStaticSubtree(2, tr, 2),
		fixedGen{workload.Op{Op: msg.Stat, Target: f}})
	for i := 0; i < 100; i++ {
		c.hints.Put(0, msg.Hint{Ino: namespace.InodeID(1000 + i), Authority: 0})
	}
	if n := c.hints.Len(0); n > 4 {
		t.Fatalf("known locations = %d, cap 4", n)
	}
	eng.Run()
}

func TestRetryOnTimeout(t *testing.T) {
	tr, f := testTree(t)
	_ = tr
	eng := sim.NewEngine()
	net := &fakeNet{n: 4}
	c := New(0, eng, Config{ThinkMean: sim.Millisecond, RetryTimeout: 10 * sim.Millisecond},
		sim.NewRNG(9), net, partition.FileHash{N: 4},
		fixedGen{workload.Op{Op: msg.Stat, Target: f}})
	c.Start(0)
	eng.RunUntil(35 * sim.Millisecond)
	// No reply ever arrives: the client must have retried ~3 times.
	if c.Counts().Retries < 2 {
		t.Fatalf("retries = %d", c.Counts().Retries)
	}
	if len(net.sends) < 3 {
		t.Fatalf("sends = %d", len(net.sends))
	}
	// All retries carry the same request.
	for _, s := range net.sends[1:] {
		if s.req != net.sends[0].req {
			t.Fatal("retry created a new request")
		}
	}
	// A reply stops the retrying and duplicates are dropped.
	req := net.sends[0].req
	c.OnReply(replyTo(req, eng.Now()))
	completed := c.Counts().Completed
	c.OnReply(replyTo(req, eng.Now()))
	if c.Counts().Completed != completed {
		t.Fatal("duplicate reply double-counted")
	}
}

func TestRetryExponentialBackoff(t *testing.T) {
	tr, f := testTree(t)
	_ = tr
	eng := sim.NewEngine()
	net := &fakeNet{n: 4}
	c := New(0, eng, Config{
		ThinkMean:    sim.Millisecond,
		RetryTimeout: 10 * sim.Millisecond,
	}, sim.NewRNG(9), net, partition.FileHash{N: 4},
		fixedGen{workload.Op{Op: msg.Stat, Target: f}})
	c.Start(0)
	// No reply ever arrives. Resends land at 10, 30 (10+20), 70
	// (+40), 150 (+80, the 8× cap), 230 (+80 capped), ...
	eng.RunUntil(240 * sim.Millisecond)
	wantAt := []sim.Time{0, 10, 30, 70, 150, 230}
	if len(net.sends) != len(wantAt) {
		t.Fatalf("sends = %d, want %d", len(net.sends), len(wantAt))
	}
	for i, s := range net.sends {
		if s.req.Issued != 0 {
			t.Fatalf("send %d: issued = %v", i, s.req.Issued)
		}
	}
	if c.Counts().Retries != 5 {
		t.Errorf("retries = %d", c.Counts().Retries)
	}
}

func TestRetryResteersAwayFromLastNode(t *testing.T) {
	tr, f := testTree(t)
	_ = tr
	eng := sim.NewEngine()
	net := &fakeNet{n: 4}
	c := New(0, eng, Config{ThinkMean: sim.Millisecond, RetryTimeout: 5 * sim.Millisecond},
		sim.NewRNG(11), net, partition.NewStaticSubtree(4, tr, 2),
		fixedGen{workload.Op{Op: msg.Stat, Target: f}})
	// Seed a hint so the first send is steered; the retry must
	// invalidate it and go elsewhere.
	c.hints.Put(0, msg.Hint{Ino: f.ID, Authority: 2})
	c.Start(0)
	eng.RunUntil(200 * sim.Millisecond)
	if len(net.sends) < 3 {
		t.Fatalf("sends = %d", len(net.sends))
	}
	if net.sends[0].mds != 2 {
		t.Fatalf("first send to %d, want hinted 2", net.sends[0].mds)
	}
	if _, _, ok := c.hints.Get(0, f.ID); ok {
		t.Error("stale hint survived retry resteering")
	}
	for i := 1; i < len(net.sends); i++ {
		if net.sends[i].mds == net.sends[i-1].mds {
			t.Fatalf("retry %d resent to the same node %d", i, net.sends[i].mds)
		}
	}
}

func TestRetryMaxRetriesTimesOut(t *testing.T) {
	tr, f := testTree(t)
	_ = tr
	eng := sim.NewEngine()
	net := &fakeNet{n: 4}
	c := New(0, eng, Config{
		ThinkMean:    sim.Millisecond,
		RetryTimeout: 5 * sim.Millisecond,
	}, sim.NewRNG(13), net, partition.FileHash{N: 4},
		fixedGen{workload.Op{Op: msg.Stat, Target: f}})
	c.Start(0)
	eng.RunUntil(sim.Second)
	if c.Counts().TimedOut == 0 {
		t.Fatal("no request timed out")
	}
	// Abandoned requests free the loop: the client kept issuing.
	if c.Counts().Issued < 2 {
		t.Fatalf("issued = %d after first timeout", c.Counts().Issued)
	}
	// Max 1 + maxRetries sends per request.
	if max := int(c.Counts().Issued) * (1 + maxRetries); len(net.sends) > max {
		t.Fatalf("sends = %d > %d", len(net.sends), max)
	}
	// Every issued request is accounted: completed, timed out, or the
	// one still in flight.
	if n := c.Counts(); n.Outstanding() > 1 {
		t.Fatalf("accounting: issued %d != completed %d + timedout %d + at most one in flight",
			n.Issued, n.Completed, n.TimedOut)
	}
	// A late reply to an abandoned request must be ignored.
	completed := c.Counts().Completed
	c.OnReply(replyTo(net.sends[0].req, eng.Now()))
	if c.Counts().Completed != completed {
		t.Fatal("late reply to abandoned request was accepted")
	}
}

func TestStoppedClientAccountsTimeout(t *testing.T) {
	tr, f := testTree(t)
	_ = tr
	eng := sim.NewEngine()
	net := &fakeNet{n: 2}
	c := New(0, eng, Config{ThinkMean: sim.Millisecond, RetryTimeout: 5 * sim.Millisecond},
		sim.NewRNG(17), net, partition.FileHash{N: 2},
		fixedGen{workload.Op{Op: msg.Stat, Target: f}})
	c.Start(0)
	eng.RunUntil(sim.Millisecond)
	c.Stop()
	eng.RunUntil(sim.Second)
	if c.Counts().TimedOut != 1 {
		t.Fatalf("timed out = %d, want the orphaned in-flight request", c.Counts().TimedOut)
	}
	if c.Counts().Outstanding() != 0 {
		t.Fatal("in-flight request not cleared at drain")
	}
}

// TestOnReplyAcceptsOnce: the return value is what the cluster records a
// completion on, so a duplicate of an answered request must not count.
func TestOnReplyAcceptsOnce(t *testing.T) {
	tr, f := testTree(t)
	_ = tr
	eng := sim.NewEngine()
	net := &fakeNet{n: 2}
	c := New(0, eng, Config{ThinkMean: sim.Millisecond}, sim.NewRNG(19), net,
		partition.FileHash{N: 2}, fixedGen{workload.Op{Op: msg.Stat, Target: f}})
	c.Start(0)
	eng.RunUntil(sim.Millisecond)
	req := net.sends[0].req
	if !c.OnReply(replyTo(req, eng.Now())) {
		t.Fatal("the first reply to the in-flight request was refused")
	}
	if c.OnReply(replyTo(req, eng.Now())) {
		t.Fatal("a duplicate reply was accepted (a duplicate must not count)")
	}
	eng.Run()
}
