// Flash crowd: thousands of clients suddenly hammer one directory — the
// pattern that motivates traffic control (§4.4) and the MIDAS-style
// create storm. The library plan drives it as a hotspot act: 80% of
// draws redirect to one home directory for eight simulated seconds,
// swept over the dynamic and hashed strategies.
//
//	go run ./examples/flashcrowd
package main

import (
	"fmt"
	"log"
	"os"

	"dynmds/internal/harness"
	"dynmds/internal/plan/library"
)

func main() {
	p, ok := library.ByName("midas-create-hotspot")
	if !ok {
		log.Fatal("library plan midas-create-hotspot not found (see mdsim -list)")
	}
	runs, err := harness.RunPlan(p, harness.Options{Quick: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := harness.WritePlanReport(os.Stdout, p, runs); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("Compare the storm act across strategies: file hashing spreads the")
	fmt.Println("created entries by construction, while the dynamic strategy has to")
	fmt.Println("rebalance the crowded subtree — the spread column shows the gap,")
	fmt.Println("and the calm/cool acts bracket the steady-state cost.")
}
