package plan

import "dynmds/internal/cluster"

// Bound is the plan's first cell at full scale, bound but not checked:
// the config a Go caller could hand cluster.New.
func (p *Plan) Bound() (cluster.Config, error) { return p.config(0, p.Set, 1) }
