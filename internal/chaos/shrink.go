package chaos

import (
	"slices"

	"dynmds/internal/fault"
	"dynmds/internal/sim"
)

// ShrinkSchedule minimises a failing fault schedule: it repeatedly
// applies reductions — drop a whole rule, halve a rule's window, drop a
// partition-group member — keeping a candidate only if fails still
// returns true, until a fixed point or the evaluation budget is
// exhausted. The candidate order is deterministic, so a
// deterministic predicate always yields the same minimum. The result is
// valid whenever the input was: reductions never widen windows, empty a
// partition group, or invent node indices. Returns the shrunk schedule
// and the number of predicate evaluations spent.
func ShrinkSchedule(s *fault.Schedule, fails func(*fault.Schedule) bool, budget int) (*fault.Schedule, int) {
	evals := 0
	try := func(c *fault.Schedule) bool {
		if evals >= budget {
			return false
		}
		evals++
		return fails(c)
	}
	cur := s.Clone()
	for changed := true; changed && evals < budget; {
		changed = false
		// Pass 1: drop whole rules, one at a time. Greedy left-to-right:
		// after a successful drop the same index holds the next rule.
		for i := 0; i < len(cur.Rules); i++ {
			cand := cur.Clone()
			cand.Rules = slices.Delete(cand.Rules, i, i+1)
			if try(cand) {
				cur = cand
				changed = true
				i--
			}
		}
		// Pass 2: halve windows toward their start — recoveries move
		// toward their crash, lag/slow/partition windows shrink. Shorter
		// windows mean fewer affected messages, hence simpler repros.
		for i := range cur.Rules {
			var cand *fault.Schedule
			switch r := cur.Rules[i]; r.Kind {
			case fault.Recover:
				cand = halveRecovery(cur, i)
			case fault.Lag, fault.Slow, fault.Partition:
				if mid, ok := midpoint(r.From, r.To); ok {
					cand = cur.Clone()
					cand.Rules[i].To = mid
				}
			}
			if cand != nil && try(cand) {
				cur = cand
				changed = true
			}
		}
		// Pass 3: reduce the nodes a partition involves, one group
		// member at a time (groups stay non-empty).
		for i := range cur.Rules {
			if cur.Rules[i].Kind != fault.Partition {
				continue
			}
			for _, side := range []int{0, 1} {
				group := cur.Rules[i].A
				if side == 1 {
					group = cur.Rules[i].B
				}
				for m := 0; m < len(group) && len(group) > 1; m++ {
					cand := cur.Clone()
					g := slices.Delete(slices.Clone(group), m, m+1)
					if side == 0 {
						cand.Rules[i].A = g
					} else {
						cand.Rules[i].B = g
					}
					if try(cand) {
						cur = cand
						group = g
						changed = true
						m--
					}
				}
			}
		}
	}
	return cur, evals
}

// halveRecovery moves recovery rule i to the midpoint between its
// node's latest preceding crash and its current time, shortening the
// outage's tail. Returns nil when there is no room to move.
func halveRecovery(s *fault.Schedule, i int) *fault.Schedule {
	rec := s.Rules[i]
	crashAt := sim.Time(-1)
	for _, r := range s.Rules {
		if r.Kind == fault.Crash && r.Node == rec.Node && r.From < rec.From && r.From > crashAt {
			crashAt = r.From
		}
	}
	if crashAt < 0 {
		return nil
	}
	mid, ok := midpoint(crashAt, rec.From)
	if !ok {
		return nil
	}
	c := s.Clone()
	c.Rules[i].From = mid
	return c
}

// midpoint returns the millisecond-rounded midpoint of [from, to),
// ok=false when the window is already too narrow to halve.
func midpoint(from, to sim.Time) (sim.Time, bool) {
	mid := from + (to-from)/2
	mid -= mid % sim.Millisecond
	if mid <= from || mid >= to {
		return 0, false
	}
	return mid, true
}
