package main

import (
	"fmt"
	"io"
	"os"

	"dynmds/internal/harness"
	"dynmds/internal/plan"
	"dynmds/internal/plan/library"
)

// resolvePlans maps the -plan argument to plans: "all" is the whole
// library, a library name is that plan, anything else is read as a DSL
// file. Every failure here is a usage error (exit 2), matching the
// -faults/-net-model precedent: a bad plan never starts a simulation.
func resolvePlans(arg string) ([]*plan.Plan, error) {
	if arg == "all" {
		return library.All(), nil
	}
	if p, ok := library.ByName(arg); ok {
		return []*plan.Plan{p}, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("-plan %q is neither a library plan (see -list-plans) nor a readable file: %v", arg, err)
	}
	p, err := plan.Parse(string(data))
	if err != nil {
		return nil, err
	}
	return []*plan.Plan{p}, nil
}

// runPlans validates, runs and reports the selected plans. The report
// is fully deterministic (golden-stable): no wall-clock or memory
// figures.
func runPlans(w io.Writer, arg string, opt harness.Options) error {
	plans, err := resolvePlans(arg)
	if err != nil {
		return err
	}
	// Compile everything up front so every config error (including a bad
	// matrix) surfaces before any plan starts running.
	for _, p := range plans {
		if _, err := p.Compile(harness.PlanOptions(opt)); err != nil {
			return err
		}
	}
	for i, p := range plans {
		runs, err := harness.RunPlan(p, opt)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := harness.WritePlanReport(w, p, runs); err != nil {
			return err
		}
	}
	return nil
}

// listPlans prints the library, one plan per line.
func listPlans(w io.Writer) {
	for _, p := range library.All() {
		cells := 1
		for _, ax := range p.Matrix {
			cells *= len(ax.Values)
		}
		fmt.Fprintf(w, "%-24s %d run(s), %d act(s)\n                         %s\n",
			p.Name, cells, len(p.Acts), p.Describe)
	}
}
