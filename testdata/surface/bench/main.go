// Command bench may post through Engine.At.
package main

import "surfacefix/internal/sim"

func main() {
	e := new(sim.Engine)
	e.At(1, func() {})
}
