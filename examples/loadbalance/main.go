// Load shift: a rename storm drags entries across authority boundaries
// (§4 of the paper: fixed-position metadata vs dynamic redistribution).
// The library plan ramps cross-tenant renames to 60% of traffic for six
// simulated seconds and the fwd column prices the forwarding each
// strategy pays before and after.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"
	"os"

	"dynmds/internal/harness"
	"dynmds/internal/plan/library"
)

func main() {
	p, ok := library.ByName("rename-storm")
	if !ok {
		log.Fatal("library plan rename-storm not found (see mdsim -list)")
	}
	runs, err := harness.RunPlan(p, harness.Options{Quick: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := harness.WritePlanReport(os.Stdout, p, runs); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("The calm and settle acts bracket the storm: forwarding and tail")
	fmt.Println("latency spike while 60% of operations are renames, then decay as")
	fmt.Println("the caches re-converge on the new authority placement.")
}
