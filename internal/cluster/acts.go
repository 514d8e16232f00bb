package cluster

import (
	"fmt"

	"dynmds/internal/metrics"
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

// ActConfig is one scenario act on a run's timeline: during [From, To)
// the open-loop traffic plane runs a retargeted rate/mix/hotspot, and
// the tenant popularity skew may be rebuilt; a plan's act lines parse to
// it. Config.Validate checks acts and New resolves them against the
// namespace: a bad act is refused before any event.
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
	// it. Negative means unchanged (0 retargets to uniform).
	FileSkew float64
	// Hotspot is an absolute namespace path that absorbs HotFrac, in
	// (0, 1], of the act's target draws — the directory of a create
	// storm, the file of a stat crowd. Empty (HotFrac 0) means none.
	Hotspot string
	HotFrac float64
}

// Mix returns the act's op-mix weights in canonical draw order.
func (a *ActConfig) Mix() [6]float64 {
	return [...]float64{a.MixStat, a.MixReaddir, a.MixChmod, a.MixCreate, a.MixRename, a.MixUnlink}
}

// act is one ActConfig's runtime, index for index with Cfg.Acts: the
// resolved hotspot, the population's issued and completed counts at
// the act's start (0) and end (1), the latency of the completions that
// land inside it, and whether it is open.
type act struct {
	hot                 *namespace.Inode
	issued0, completed0 uint64
	issued1, completed1 uint64
	lat                 metrics.LatHist
	open                bool
}

// setupActs resolves the acts' hotspot paths against the fresh
// snapshot and posts every boundary: all skew retargets first, then
// each act's start and end, so act k ends before act k+1 begins at a
// shared instant. A mix with unlinks keeps the churn ring fed from the
// first completed create, not from the act's start.
func (c *Cluster) setupActs() error {
	if len(c.Cfg.Acts) == 0 {
		return nil
	}
	c.acts = make([]act, len(c.Cfg.Acts))
	for i := range c.Cfg.Acts {
		a := &c.Cfg.Acts[i]
		mix := a.Mix()
		if a.Hotspot != "" {
			n, err := c.Snap.Tree.Lookup(a.Hotspot)
			if err != nil {
				return fmt.Errorf("cluster: act %q: hotspot path not in namespace: %v", a.Name, err)
			}
			eff := mix
			if eff == [6]float64{} {
				eff = c.Cfg.OpenLoop.EffectiveMix()
			}
			if !n.IsDir() && eff[1]+eff[3] > 0 {
				return fmt.Errorf("cluster: act %q: hotspot %s is a file but the act mix includes directory ops (readdir/create)", a.Name, a.Hotspot)
			}
			c.acts[i].hot = n
		}
		if mix[5] > 0 {
			c.Pop.KeepChurn()
		}
		if a.FileSkew >= 0 {
			c.Eng.At(a.From, func() { c.tenants.SetFileSkew(a.FileSkew) })
		}
	}
	for i := range c.Cfg.Acts {
		c.Eng.At(c.Cfg.Acts[i].From, func() { c.beginAct(i) })
		c.Eng.At(c.Cfg.Acts[i].To, func() { c.endAct(i) })
	}
	return nil
}

// beginAct counts act i's start and installs its phase.
func (c *Cluster) beginAct(i int) {
	a, r := &c.Cfg.Acts[i], &c.acts[i]
	n := c.Pop.Counts()
	r.issued0, r.completed0 = n.Issued, n.Completed
	r.open = true
	c.Pop.SetPhase(a.RateMul, a.Mix(), r.hot, a.HotFrac, &r.lat)
}

// endAct counts act i's end and reverts the population to its base
// phase.
func (c *Cluster) endAct(i int) {
	r := &c.acts[i]
	n := c.Pop.Counts()
	r.issued1, r.completed1 = n.Issued, n.Completed
	r.open = false
	c.Pop.SetPhase(0, [6]float64{}, nil, 0, nil)
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

// collectActs fills r.Acts from the acts' counters and the per-node
// reply series. An act still open reads the live counters; one that
// never began reports zero counts and an empty histogram.
func (c *Cluster) collectActs(r *Result) {
	for i := range c.acts {
		a, st := &c.Cfg.Acts[i], &c.acts[i]
		i1, c1 := st.issued1, st.completed1
		if st.open {
			n := c.Pop.Counts()
			i1, c1 = n.Issued, n.Completed
		}
		ar := ActResult{Name: a.Name, From: a.From, To: a.To, Issued: i1 - st.issued0, Completed: c1 - st.completed0}
		if w := (a.To - a.From).Seconds(); w > 0 {
			ar.OpsPerSec = float64(ar.Completed) / w
		}
		ar.P50 = st.lat.Quantile(0.5).Seconds()
		ar.P99 = st.lat.Quantile(0.99).Seconds()
		ar.LoadSpread = c.loadSpread(a.From, a.To)
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
