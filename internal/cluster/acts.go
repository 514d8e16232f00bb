package cluster

import (
	"fmt"

	"dynmds/internal/client"
	"dynmds/internal/metrics"
	"dynmds/internal/sim"
)

// ActConfig is one scenario act on a run's timeline: during [From, To)
// the open-loop traffic plane runs a retargeted rate/mix/hotspot, and
// the tenant popularity skew may be rebuilt. Acts are validated and
// resolved against the namespace in New — a bad act is a construction
// error, never a mid-run surprise.
type ActConfig struct {
	Name     string
	From, To sim.Time
	// RateMul scales the per-client arrival rate for the act; 0 means
	// unchanged.
	RateMul float64
	// Mix weights for the act; all-zero inherits the population's base
	// mix. Weights are relative, not percentages.
	MixStat, MixReaddir, MixChmod, MixCreate, MixRename, MixUnlink float64
	// FileSkew retargets the tenant popularity Zipf exponent at From.
	// Unlike rate/mix/hotspot it persists past To (reshaping popularity
	// is a state change, not a phase): a later act, or nothing, reverts
	// it. Negative means unchanged.
	FileSkew float64
	// Hotspot is an absolute namespace path that absorbs HotFrac of the
	// act's target draws — the directory of a create storm, the file of
	// a stat crowd. Empty means no hotspot.
	Hotspot string
	HotFrac float64
}

// setupActs validates cfg.Acts, resolves hotspot paths against the
// fresh snapshot, registers the acts with the population, and schedules
// the skew retargets.
func (c *Cluster) setupActs() error {
	cfg := c.Cfg
	if len(cfg.Acts) == 0 {
		return nil
	}
	if c.Pop == nil {
		return fmt.Errorf("cluster: acts require the open-loop traffic plane (set OpenLoop)")
	}
	baseMix := cfg.OpenLoop.EffectiveMix()
	acts := make([]client.Act, len(cfg.Acts))
	var prevTo sim.Time
	prevName := ""
	for i, a := range cfg.Acts {
		if a.Name == "" {
			return fmt.Errorf("cluster: act %d has no name", i)
		}
		if a.From < 0 || a.To <= a.From {
			return fmt.Errorf("cluster: act %q: window %v..%v does not move forward", a.Name, a.From, a.To)
		}
		if a.To > cfg.Duration {
			return fmt.Errorf("cluster: act %q ends at %v, past the run duration %v", a.Name, a.To, cfg.Duration)
		}
		if a.From < prevTo {
			return fmt.Errorf("cluster: act %q (from %v) overlaps act %q (ends %v)", a.Name, a.From, prevName, prevTo)
		}
		prevTo, prevName = a.To, a.Name
		if a.RateMul < 0 {
			return fmt.Errorf("cluster: act %q: rate multiplier %g must be >= 0", a.Name, a.RateMul)
		}
		mix := [...]float64{a.MixStat, a.MixReaddir, a.MixChmod, a.MixCreate, a.MixRename, a.MixUnlink}
		for _, w := range mix {
			if w < 0 {
				return fmt.Errorf("cluster: act %q: negative mix weight %g", a.Name, w)
			}
		}
		if a.HotFrac < 0 || a.HotFrac > 1 {
			return fmt.Errorf("cluster: act %q: hotspot fraction %g outside [0, 1]", a.Name, a.HotFrac)
		}
		act := client.Act{Name: a.Name, From: a.From, To: a.To, RateMul: a.RateMul, Mix: mix, HotFrac: a.HotFrac}
		if a.Hotspot == "" {
			if a.HotFrac > 0 {
				return fmt.Errorf("cluster: act %q: hotspot fraction without a hotspot path", a.Name)
			}
		} else {
			n, err := c.Snap.Tree.Lookup(a.Hotspot)
			if err != nil {
				return fmt.Errorf("cluster: act %q: hotspot path not in namespace: %v", a.Name, err)
			}
			eff := mix
			if mix[0]+mix[1]+mix[2]+mix[3]+mix[4]+mix[5] <= 0 {
				eff = baseMix
			}
			if !n.IsDir() && eff[1]+eff[3] > 0 {
				return fmt.Errorf("cluster: act %q: hotspot %s is a file but the act mix includes directory ops (readdir/create)", a.Name, a.Hotspot)
			}
			act.Hot = n
		}
		acts[i] = act
		if a.FileSkew >= 0 {
			skew := a.FileSkew
			c.Eng.At(a.From, func() { c.tenants.SetFileSkew(skew) })
		}
	}
	c.Pop.ScheduleActs(acts)
	return nil
}

// ActResult is one act's merged metrics: arrivals and completions
// inside the window, completion throughput, latency quantiles of the
// completions that landed in the window, and the per-MDS load spread
// (max/mean replies per node over the window; 1.0 = perfectly even).
type ActResult struct {
	Name       string
	From, To   sim.Time
	Issued     uint64
	Completed  uint64
	OpsPerSec  float64
	P50, P99   float64 // seconds
	LoadSpread float64
}

// collectActs fills r.Acts from the population's per-act accounting and
// the per-node reply series.
func (c *Cluster) collectActs(r *Result) {
	if c.Pop == nil {
		return
	}
	for _, st := range c.Pop.ActStats() {
		ar := ActResult{Name: st.Name, From: st.From, To: st.To, Issued: st.Issued, Completed: st.Completed}
		if w := (st.To - st.From).Seconds(); w > 0 {
			ar.OpsPerSec = float64(st.Completed) / w
		}
		ar.P50 = st.Lat.Quantile(0.5).Seconds()
		ar.P99 = st.Lat.Quantile(0.99).Seconds()
		ar.LoadSpread = c.loadSpread(st.From, st.To)
		r.Acts = append(r.Acts, ar)
	}
}

// loadSpread reduces the per-node reply series over [from, to) to
// max/mean — how unevenly the act's load landed across the cluster.
// Buckets fully inside the window count; a window shorter than one
// bucket falls back to the bucket containing from.
func (c *Cluster) loadSpread(from, to sim.Time) float64 {
	b := c.Cfg.SeriesBucket
	if b <= 0 || len(c.RepliesPerNode) == 0 {
		return 0
	}
	lo := int((from + b - 1) / b)
	hi := int(to / b)
	if hi <= lo {
		lo = int(from / b)
		hi = lo + 1
	}
	var w metrics.Welford
	for _, s := range c.RepliesPerNode {
		var ops float64
		for i := lo; i < hi && i < s.Len(); i++ {
			ops += s.Sum(i)
		}
		w.Add(ops)
	}
	if w.Mean() <= 0 {
		return 0
	}
	return w.Max() / w.Mean()
}
