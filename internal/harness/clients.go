package harness

import (
	"fmt"
	"io"

	"dynmds/internal/client"
	"dynmds/internal/cluster"
	"dynmds/internal/metrics"
	"dynmds/internal/plan"
	"dynmds/internal/sim"
	"dynmds/internal/workload"
)

// clientsConfig builds one open-loop traffic-plane run.
func clientsConfig(opt Options, strategy string, clients int, rate float64) cluster.Config {
	cfg := cluster.Default()
	cfg.Seed = opt.Seed
	cfg.Strategy = strategy
	cfg.NumMDS = 8
	cfg.FS.Users = 40
	cfg.MDS.CacheCapacity = 2500
	cfg.Duration = 8 * sim.Second
	cfg.Warmup = 2 * sim.Second
	cfg.OpenLoop = &client.PopulationConfig{
		Clients: clients,
		Rate:    rate,
		Tenant:  workload.TenantConfig{TenantSkew: 1, FileSkew: 1},
	}
	if opt.Quick {
		cfg.Duration = 4 * sim.Second
		cfg.Warmup = 1 * sim.Second
	}
	return cfg
}

// clientsExt sweeps the open-loop flyweight population across client
// counts for the subtree strategies: per-client state stays flat (the
// bytes/client column) while arrival volume is held constant, so the
// axis isolates population-size cost from load.
func clientsExt(opt Options) (*plan.Plan, Renderer, error) {
	counts := []int{100_000, 1_000_000}
	budget := 40e3 // arrivals per run, under cluster service capacity
	if opt.Quick {
		counts = []int{20_000, 200_000}
		budget = 15e3
	}
	p := &plan.Plan{
		Name: "clients",
		Matrix: []plan.Axis{
			{Key: "strategy", Values: []string{cluster.StratDynamic, cluster.StratStatic, cluster.StratFileHash}},
			{Key: "clients", Values: intStrings(counts)},
		},
		Tweak: func(cfg *cluster.Config, cell plan.Cell) {
			n := atoi(cell["clients"])
			rate := budget / (float64(n) * clientsConfig(opt, cell["strategy"], n, 1).Duration.Seconds())
			*cfg = clientsConfig(opt, cell["strategy"], n, rate)
		},
	}
	return p, renderClients, nil
}

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
