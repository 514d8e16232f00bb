package main

import (
	"fmt"
	"io"
)

// verdicts of one metric on one workload, B against A.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies one metric's bound to two summaries. Positive change is
// always "got worse", whatever the metric's direction. On one seed a
// simulated metric has to repeat exactly and a host metric is held to its
// same-seed bound; across seeds every metric is held to the wider bound
// BENCHMARK.json carries. A host metric is unresolved when either side's
// own inter-quartile range is wider than the bound applied.
func judge(m metricSpec, a, b summary, sameSeed bool) (verdict string, change float64) {
	if a.Median != 0 {
		change = (b.Median - a.Median) / a.Median
	} else if b.Median != 0 {
		change = 1
	}
	if m.Better == "higher" {
		change = -change
	}
	bound := m.Bound
	if sameSeed {
		bound = m.SameSeed
	}
	switch {
	case bound == 0 && a.Median == b.Median:
		return verdictSame, 0
	case a.spread() > bound || b.spread() > bound:
		return verdictUnresolved, change
	case change > bound:
		return verdictWorse, change
	case change < -bound:
		return verdictBetter, change
	}
	return verdictSame, change
}

// compare prints one row per metric and workload and reports whether any
// row is worse. A workload missing from either side is an error, as is a
// digest that differs between two runs of one seed.
func compare(w io.Writer, a, b *resultSet) (worse bool, err error) {
	if a.Quick != b.Quick {
		return false, fmt.Errorf("compare: one result set is -quick and the other is not")
	}
	if a.Reps != b.Reps {
		// The low-sixth CPU estimate is an order statistic: it moves with
		// the number of repetitions it is taken over.
		return false, fmt.Errorf("compare: result sets of %d and %d repetitions are not comparable", a.Reps, b.Reps)
	}
	sameSeed := a.Seed == b.Seed
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "change", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			return false, fmt.Errorf("compare: workload %s is missing from the second result set", wa.Name)
		}
		for _, m := range endToEnd {
			sa, oka := wa.EndToEnd[m.Name]
			sb, okb := wb.EndToEnd[m.Name]
			if !oka || !okb {
				return false, fmt.Errorf("compare: metric %s of %s is missing from a result set", m.Name, wa.Name)
			}
			v, change := judge(m, sa, sb, sameSeed)
			if v == verdictWorse {
				worse = true
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %+8.2f%%  %s\n", wa.Name, m.Name, sa.Median, sb.Median, 100*change, v)
		}
		if sameSeed {
			v := verdictSame
			if wa.Digest != wb.Digest {
				v, worse = verdictWorse, true
			}
			fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s  %s\n", wa.Name, "digest", "", "", "", v)
		}
	}
	return worse, nil
}
