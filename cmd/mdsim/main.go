// Command mdsim runs one plan: a figure of the paper, an extension, the
// chaos budget, a scenario from the plan library, a plan file, or —
// with no -plan — the built-in default plan, one run of the stock
// cluster reported in full. -set key=value overrides a key of the plan
// key table (internal/plan) on every run the plan compiles to; the
// checkpoint key puts a run on the endurance plane. Every run takes one
// path: the plan compiles to cells, one harness cell runner runs each (a
// faulted cell is drained and checked by simfsck), the plan's renderer
// prints the result, and a failure block follows for each cell that
// failed simfsck. Performance is measured by the repository benchmark
// (go run ./bench), not here.
//
// Usage:
//
//	mdsim                                       # the default plan
//	mdsim -set strategy=FileHash -set mds=8     # ... reshaped
//	mdsim -plan fig2                            # regenerate Figure 2 (full scale)
//	mdsim -plan figures -quick                  # every figure and extension, reduced scale
//	mdsim -plan chaos -seed 7                   # the chaos budget
//	mdsim -plan hotspot-duel -quick -set net=queued
//	mdsim -set rate=0.05 -set clients=20000 -set checkpoint=2.5s -checkpoint-dir ck \
//	      -set mix=stat:55,readdir:10,chmod:5,create:12,rename:3,unlink:15  # an aging run
//	mdsim -plan my.plan -cpuprofile cpu.pprof -memprofile mem.pprof
//	mdsim -list                                 # what -plan accepts
//
// Exit status: 0 on success, 1 when a run fails (simfsck violation,
// I/O error), 2 on a usage error — always before any event runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"dynmds/internal/harness"
	"dynmds/internal/plan"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// invocation is one parsed command line: the output streams, the flag
// set, and the flag values.
type invocation struct {
	stdout, stderr io.Writer
	flags          *flag.FlagSet

	plan       string
	opt        harness.Options // -quick, -seed, -set, -checkpoint-dir, -restore
	list       bool
	workers    int
	cpuprofile string
	memprofile string
}

// usage reports a usage error: the message, the flag summary, exit 2.
func (c *invocation) usage(format string, a ...interface{}) int {
	fmt.Fprintf(c.stderr, "mdsim: "+format+"\n", a...)
	c.flags.Usage()
	return 2
}

// fail reports a run-time failure: exit 1.
func (c *invocation) fail(err error) int {
	fmt.Fprintln(c.stderr, "mdsim:", err)
	return 1
}

// settings is the repeatable -set flag; each value is vetted against the
// plan key table as it is read.
type settings []plan.Setting

func (s *settings) String() string { return fmt.Sprint(*s) }

func (s *settings) Set(v string) error {
	st, err := plan.ParseSetting(v)
	if err == nil {
		*s = append(*s, st)
	}
	return err
}

// parseArgs reads the command line. A nil invocation means the flag
// package has already reported: code is 0 for -h, 2 for a bad flag.
func parseArgs(args []string, stdout, stderr io.Writer) (c *invocation, code int) {
	fs := flag.NewFlagSet("mdsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c = &invocation{stdout: stdout, stderr: stderr, flags: fs}
	fs.StringVar(&c.plan, "plan", plan.Default().Name, "what to run: an experiment or library plan from -list, a plan DSL file, or the group 'figures' or 'library'")
	fs.Var((*settings)(&c.opt.Set), "set", "override `key=value` on every run of the plan, after its matrix; repeatable (keys: README.md, or any bad key's error)")
	fs.BoolVar(&c.list, "list", false, "list what -plan accepts")
	fs.BoolVar(&c.opt.Quick, "quick", false, "reduced-scale experiments and plans")
	fs.Int64Var(&c.opt.Seed, "seed", 1, "simulation seed; also seeds the chaos budget and the soak schedule")
	fs.IntVar(&c.workers, "workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&c.opt.CheckpointDir, "checkpoint-dir", "", "write the snapshots of a one-run plan with a checkpoint cadence into this directory")
	fs.StringVar(&c.opt.Restore, "restore", "", "resume a one-run plan with a checkpoint cadence from this snapshot instead of starting at t=0")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2
	}
	if fs.NArg() > 0 {
		return nil, c.usage("unexpected argument %q", fs.Arg(0))
	}
	return c, 0
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	c, code := parseArgs(args, stdout, stderr)
	if c == nil {
		return code
	}
	// Settle every question the command line can answer — what to run,
	// and whether each override lands on it — before any simulation work
	// starts; job is what is left to do.
	job := func() int { list(stdout); return 0 }
	if !c.list {
		targets, err := resolve(c.plan)
		for i := 0; err == nil && i < len(targets); i++ {
			err = targets[i].Check(c.opt)
		}
		if err != nil {
			return c.usage("%v", err)
		}
		job = func() int { return runTargets(c, targets) }
	}

	harness.SetSweepWorkers(c.workers)
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			return c.fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return c.fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if c.memprofile != "" {
		defer func() {
			if err := writeHeapProfile(c.memprofile); err != nil {
				code = max(code, c.fail(err))
			}
		}()
	}
	return job()
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
