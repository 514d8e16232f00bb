package harness

import (
	"fmt"
	"io"

	"dynmds/internal/metrics"
)

// clientsSrc sweeps the open-loop flyweight population across client
// counts for the subtree strategies and FileHash. Per-client state stays
// flat (the bytes/client column) while the rate falls as the population
// grows, holding arrivals at 40k a run (15k at -quick), under the
// cluster's service capacity, so the axis isolates population-size cost
// from load.
const clientsSrc = `plan clients
quick 1
fs users=40
cluster mds=8 cache=2500 log=2000
traffic tenant-skew=1 file-skew=1
matrix strategy=DynamicSubtree,StaticSubtree,FileHash
matrix clients=100000,1000000 rate=0.05,0.005
warmup 2s
duration 8s
quick matrix clients=20000,200000 rate=0.1875,0.01875
quick warmup 1s
quick duration 4s
`

func renderClients(w io.Writer, runs []PlanRun) error {
	fmt.Fprintln(w, "Extension: open-loop traffic plane, client-count sweep (constant arrival budget)")
	tb := metrics.NewTable("strategy", "clients", "issued", "completed", "p50(ms)", "p99(ms)", "p999(ms)", "fwd", "B/client")
	for _, run := range runs {
		r := run.Res
		tb.AddRow(run.Cfg.Strategy, r.Clients, int(r.Issued), int(r.Completed),
			fmt.Sprintf("%.2f", r.LatencyP50*1000),
			fmt.Sprintf("%.2f", r.LatencyP99*1000),
			fmt.Sprintf("%.2f", r.LatencyP999*1000),
			fmt.Sprintf("%.3f", r.ForwardFrac),
			fmt.Sprintf("%.1f", float64(r.PopFootprint)/float64(r.Clients)))
	}
	_, err := io.WriteString(w, tb.String())
	return err
}
