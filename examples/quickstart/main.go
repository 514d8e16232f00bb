// Quickstart: run a library scenario plan end to end — parse, validate,
// compile, sweep, report. The plan DSL is printed first so the whole
// scenario is visible; `mdsim -plan simfs-campaign -quick` runs the
// identical path.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"dynmds/internal/harness"
	"dynmds/internal/plan/library"
)

func main() {
	p, ok := library.ByName("simfs-campaign")
	if !ok {
		log.Fatal("library plan simfs-campaign not found (see mdsim -list)")
	}
	fmt.Println("# the plan, in its canonical DSL form:")
	fmt.Println(p)

	opt := harness.Options{Quick: true}
	runs, err := harness.RunPlan(p, opt)
	if err != nil {
		log.Fatal(err)
	}
	if err := harness.WritePlanReport(os.Stdout, p, runs); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("The acts retarget the live population mid-run: the scan phase is")
	fmt.Println("readdir-heavy at low skew, then bulk-stat triples the arrival rate")
	fmt.Println("and concentrates it on the entries the scan surfaced.")
}
