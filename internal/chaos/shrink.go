package chaos

import (
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
		for i := 0; i < cur.NumRules(); i++ {
			if cand := dropRule(cur, i); try(cand) {
				cur = cand
				changed = true
				i--
			}
		}
		// Pass 2: halve windows toward their start — recoveries move
		// toward their crash, lag/slow/partition windows shrink. Shorter
		// windows mean fewer affected messages, hence simpler repros.
		for i := range cur.Recovers {
			if cand, ok := halveRecovery(cur, i); ok && try(cand) {
				cur = cand
				changed = true
			}
		}
		for i := range cur.Lags {
			mid, ok := midpoint(cur.Lags[i].From, cur.Lags[i].To)
			if !ok {
				continue
			}
			cand := cur.Clone()
			cand.Lags[i].To = mid
			if try(cand) {
				cur = cand
				changed = true
			}
		}
		for i := range cur.Slows {
			mid, ok := midpoint(cur.Slows[i].From, cur.Slows[i].To)
			if !ok {
				continue
			}
			cand := cur.Clone()
			cand.Slows[i].To = mid
			if try(cand) {
				cur = cand
				changed = true
			}
		}
		for i := range cur.Partitions {
			mid, ok := midpoint(cur.Partitions[i].From, cur.Partitions[i].To)
			if !ok {
				continue
			}
			cand := cur.Clone()
			cand.Partitions[i].To = mid
			if try(cand) {
				cur = cand
				changed = true
			}
		}
		// Pass 3: reduce the nodes a partition involves, one group
		// member at a time (groups stay non-empty).
		for i := range cur.Partitions {
			for _, side := range []int{0, 1} {
				group := cur.Partitions[i].A
				if side == 1 {
					group = cur.Partitions[i].B
				}
				for m := 0; m < len(group) && len(group) > 1; m++ {
					cand := cur.Clone()
					g := append([]int(nil), group[:m]...)
					g = append(g, group[m+1:]...)
					if side == 0 {
						cand.Partitions[i].A = g
					} else {
						cand.Partitions[i].B = g
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

// dropRule clones the schedule minus rule idx, indexing across the
// rule slices in struct order (crash, recover, drop, lag, slow,
// partition) — the same order NumRules counts.
func dropRule(s *fault.Schedule, idx int) *fault.Schedule {
	c := s.Clone()
	for _, sl := range []struct {
		n   int
		cut func(i int)
	}{
		{len(c.Crashes), func(i int) { c.Crashes = append(c.Crashes[:i], c.Crashes[i+1:]...) }},
		{len(c.Recovers), func(i int) { c.Recovers = append(c.Recovers[:i], c.Recovers[i+1:]...) }},
		{len(c.Drops), func(i int) { c.Drops = append(c.Drops[:i], c.Drops[i+1:]...) }},
		{len(c.Lags), func(i int) { c.Lags = append(c.Lags[:i], c.Lags[i+1:]...) }},
		{len(c.Slows), func(i int) { c.Slows = append(c.Slows[:i], c.Slows[i+1:]...) }},
		{len(c.Partitions), func(i int) { c.Partitions = append(c.Partitions[:i], c.Partitions[i+1:]...) }},
	} {
		if idx < sl.n {
			sl.cut(idx)
			return c
		}
		idx -= sl.n
	}
	return c // idx out of range: unchanged clone (callers stay in range)
}

// halveRecovery moves recovery i to the midpoint between its node's
// latest preceding crash and its current time, shortening the outage's
// tail. Returns ok=false when there is no room to move.
func halveRecovery(s *fault.Schedule, i int) (*fault.Schedule, bool) {
	rec := s.Recovers[i]
	crashAt := sim.Time(-1)
	for _, ev := range s.Crashes {
		if ev.Node == rec.Node && ev.At < rec.At && ev.At > crashAt {
			crashAt = ev.At
		}
	}
	if crashAt < 0 {
		return nil, false
	}
	mid, ok := midpoint(crashAt, rec.At)
	if !ok {
		return nil, false
	}
	c := s.Clone()
	c.Recovers[i].At = mid
	return c, true
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
