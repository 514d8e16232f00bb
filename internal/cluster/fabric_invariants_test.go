package cluster

import (
	"testing"

	"dynmds/internal/net"
	"dynmds/internal/sim"
)

// fig2QuickConfig mirrors the Figure 2 quick-scale point used by CI.
func fig2QuickConfig(strategy string) Config {
	cfg := Default()
	cfg.Strategy = strategy
	cfg.NumMDS = 4
	cfg.ClientsPerMDS = 30
	cfg.FS.Users = 100
	cfg.Duration = 10 * sim.Second
	cfg.Warmup = 4 * sim.Second
	return cfg
}

// drain stops every client and runs the engine long past the last
// bounded network hop, so only the perpetual tickers (flushers,
// balancer) remain. Two simulated seconds dwarfs the longest message
// chain (a forwarded request with a disk fetch is a few milliseconds).
func drain(cl *Cluster) {
	for _, c := range cl.Clients {
		c.Stop()
	}
	cl.Eng.RunUntil(cl.Cfg.Duration + 2*sim.Second)
}

// TestMessageConservation checks the fabric's accounting identity for
// every strategy: once the clients stop and in-flight traffic drains,
// every message sent has been delivered exactly once, no pooled
// envelope has leaked, and the request/reply flow balances against the
// clients' own issue/complete counters.
func TestMessageConservation(t *testing.T) {
	for _, s := range Strategies {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			cl, err := New(fig2QuickConfig(s))
			if err != nil {
				t.Fatal(err)
			}
			cl.Run()
			drain(cl)
			conserved(t, cl)
		})
	}
}

// conserved checks the accounting identity on a drained run.
func conserved(t *testing.T, cl *Cluster) {
	t.Helper()
	if n := cl.Fab.InFlight(); n != 0 {
		t.Errorf("in-flight after drain = %d", n)
	}
	if n := cl.Fab.LiveEnvelopes(); n != 0 {
		t.Errorf("live envelopes after drain = %d", n)
	}
	for c := 0; c < net.NumClasses; c++ {
		cs := cl.Fab.Class(net.Class(c))
		if cs.Sent != cs.Delivered {
			t.Errorf("%s: sent %d != delivered %d",
				net.Class(c), cs.Sent, cs.Delivered)
		}
	}

	// Every issued request crossed the client edge exactly once
	// (retries are disabled), and every one of them was answered with
	// exactly one reply that reached its client.
	var issued, completed uint64
	for _, c := range cl.Clients {
		issued += c.Counts().Issued
		completed += c.Counts().Completed
	}
	req := cl.Fab.Class(net.Request)
	rep := cl.Fab.Class(net.Reply)
	if req.Sent != issued {
		t.Errorf("requests sent %d != issued %d", req.Sent, issued)
	}
	if rep.Sent != req.Sent {
		t.Errorf("replies sent %d != requests sent %d", rep.Sent, req.Sent)
	}
	if completed != rep.Sent {
		t.Errorf("completed %d != replies sent %d", completed, rep.Sent)
	}
}

// TestQueuedModelDeterministic checks the queued model is reproducible
// run to run, and that its serialization delay is live: the mean
// latency is not the fixed model's.
func TestQueuedModelDeterministic(t *testing.T) {
	fixed := fig2QuickConfig(StratDynamic)
	cfg := fixed
	cfg.NetModel = net.ModelQueued

	run := func(cfg Config) *Result {
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cl.Run()
	}
	a, b := run(cfg), run(cfg)
	if a.String() != b.String() {
		t.Errorf("queued runs differ:\n%s\n%s", a, b)
	}
	if a.Net != b.Net {
		t.Errorf("fabric stats differ:\n%+v\n%+v", a.Net, b.Net)
	}
	if a.Net.MaxQueueDepth < 2 {
		t.Errorf("max queue depth = %d; expected real queueing", a.Net.MaxQueueDepth)
	}
	if f := run(fixed); f.MeanLatency == a.MeanLatency {
		t.Errorf("the queued run has the fixed model's mean latency %v", a.MeanLatency)
	}
}
