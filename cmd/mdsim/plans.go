package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"dynmds/internal/harness"
	"dynmds/internal/plan"
	"dynmds/internal/plan/library"
)

// The two groups -plan accepts beside single names.
const (
	groupFigures = "figures" // every figure and extension, in -list order
	groupLibrary = "library" // every scenario plan of the library
)

// resolve maps the -plan argument to what it runs: the default plan, a
// group, a figure, extension or the chaos budget by ID, a library plan
// by name, or a plan DSL file.
func resolve(arg string) ([]harness.Experiment, error) {
	switch arg {
	case plan.Default().Name:
		return []harness.Experiment{defaultPlan()}, nil
	case groupFigures:
		return append(harness.All(), harness.Extras()...), nil
	case groupLibrary:
		var out []harness.Experiment
		for _, p := range library.All() {
			out = append(out, harness.Scenario(p))
		}
		return out, nil
	}
	if e, ok := harness.ByID(arg); ok {
		return []harness.Experiment{e}, nil
	}
	p, ok := library.ByName(arg)
	if !ok {
		data, err := os.ReadFile(arg)
		if err != nil {
			return nil, fmt.Errorf("-plan %q is neither listed by -list nor a readable plan file: %v", arg, err)
		}
		if p, err = plan.Parse(string(data)); err != nil {
			return nil, err
		}
	}
	return []harness.Experiment{harness.Scenario(p)}, nil
}

// runTargets runs what resolve returned, in order. An experiment with a
// title gets a heading and a wall-time line; one without — the default
// plan, the chaos budget, a scenario plan — prints its own report. A
// cell that cannot be built from its plan (a hotspot path the namespace
// lacks) is a usage error like any other bad plan, raised before the
// cell's first event.
func runTargets(c *invocation, targets []harness.Experiment) int {
	w := c.stdout
	for i, e := range targets {
		start := time.Now()
		if e.Title != "" {
			fmt.Fprintf(w, "== %s ==\n%s\n\n", e.Title, e.Description)
		} else if i > 0 {
			fmt.Fprintln(w)
		}
		if err := e.Run(w, c.opt); err != nil {
			if be := (*harness.BuildError)(nil); errors.As(err, &be) {
				fmt.Fprintln(c.stderr, "mdsim:", err)
				return 2
			}
			return c.fail(err)
		}
		if e.Title != "" {
			fmt.Fprintf(w, "(wall time %v)\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
	return 0
}

// list prints everything -plan accepts.
func list(w io.Writer) {
	d, chaos := plan.Default(), harness.Chaos()
	fmt.Fprintf(w, "%-24s %s\n%-24s %s\n", d.Name, d.Describe, chaos.ID, chaos.Description)
	fmt.Fprintf(w, "\n%-24s every experiment below, in order\n", groupFigures)
	for _, e := range append(harness.All(), harness.Extras()...) {
		fmt.Fprintf(w, "%-24s %s\n%24s %s\n", e.ID, e.Title, "", e.Description)
	}
	fmt.Fprintf(w, "\n%-24s every scenario plan below, in order\n", groupLibrary)
	for _, p := range library.All() {
		cells := 1
		for _, ax := range p.Matrix {
			cells *= ax.Len()
		}
		fmt.Fprintf(w, "%-24s %d run(s), %d act(s)\n%24s %s\n", p.Name, cells, len(p.Acts), "", p.Describe)
	}
	fmt.Fprintln(w, "\nor the path of a plan DSL file (internal/plan)")
}
