package cluster_test

import (
	"fmt"
	"strings"
	"testing"

	"dynmds/internal/cluster"
	"dynmds/internal/endure"
	"dynmds/internal/metrics"
	"dynmds/internal/sim"
)

// TestCollectStopsAtRunEnd: a Result is what the run had when it was
// collected. Draining the cluster afterwards — as the harness does
// before simfsck checks a faulted run — moves the cluster's own series
// on, and neither the collected series nor the run's digest with them.
// The run ends mid-bucket, so the drain lands in a bucket the result
// already holds as well as in new ones.
func TestCollectStopsAtRunEnd(t *testing.T) {
	cfg := cluster.Default()
	cfg.FS.Users = 30
	cfg.ClientsPerMDS = 10
	cfg.Duration = 5500 * sim.Millisecond
	cfg.Warmup = sim.Second
	cfg.Faults = "crash@2s-4s:mds1,drop@0.02:all"
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Run()
	series, digest := dumpSeries(res), endure.Digest(res)
	live := func() string {
		return dumpSeries(&cluster.Result{Forwards: cl.Forwards, Arrivals: cl.Arrivals,
			CompletedOps: cl.CompletedOps, RepliesPerNode: cl.RepliesPerNode})
	}
	if live() != series {
		t.Fatal("the collected series are not the cluster's at the run's end")
	}
	cl.Drain()
	if live() == series {
		t.Fatal("the drain moved no series of the cluster: the test shows nothing")
	}
	if got := dumpSeries(res); got != series {
		t.Errorf("the drain moved the collected series:\nbefore:\n%s\nafter:\n%s", series, got)
	}
	if got := endure.Digest(res); got != digest {
		t.Errorf("the drain moved the digest:\nbefore: %s\nafter:  %s", digest, got)
	}
}

// dumpSeries renders every series of a result, bucket by bucket.
func dumpSeries(r *cluster.Result) string {
	var b strings.Builder
	all := append([]*metrics.Series{r.Forwards, r.Arrivals, r.CompletedOps}, r.RepliesPerNode...)
	for _, s := range all {
		for i := range s.Len() {
			fmt.Fprintf(&b, "%g ", s.Sum(i))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
