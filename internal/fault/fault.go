// Package fault is the deterministic fault injector. A Schedule — parsed
// from a compact DSL or built programmatically — describes scheduled and
// probabilistic faults against a simulated cluster: MDS crashes and
// recoveries at virtual times, per-link message drop probabilities,
// windowed latency spikes, slow-node service-time scaling, and network
// partitions between MDS groups. A Plane binds a schedule to a seeded
// RNG stream and implements net.FaultPlane, so the message fabric
// consults it on every send.
//
// Determinism contract: the plane is driven only by virtual time and its
// own seeded stream, and it never consumes randomness for a message no
// positive-probability rule matches. The same seed plus the same
// schedule therefore reproduces a run bit-identically, and an empty (or
// zero-probability) schedule is bit-identical to running with no plane
// attached at all.
//
// Schedule DSL — comma-separated events, each `kind@spec:target`:
//
//	crash@30s:mds3            crash node 3 at t=30s (stays down)
//	crash@30s-45s:mds3        crash at 30s, recover at 45s
//	recover@45s:mds3          recover node 3 at t=45s
//	drop@0.01:link2-5         drop 1% of messages between nodes 2 and 5
//	drop@0.05:mds1            ... on any link touching node 1
//	drop@0.02:client          ... on the client edge (requests/replies)
//	drop@0.001:all            ... on every link
//	lag@10s-20s:mds2+2ms      +2ms on links touching node 2 during 10-20s
//	slow@10s-20s:mds2x4       node 2 serves CPU/disk 4x slower in 10-20s
//	partition@60s-90s:{0-3|4-7}   drop traffic between groups {0..3} and
//	                              {4..7} during 60-90s (ranges or single
//	                              indices joined by '.', e.g. {0.2|1.3-5})
//
// Times accept s/ms/us suffixes (bare numbers mean seconds); windows are
// `from-to` and are half-open [from, to).
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dynmds/internal/sim"
)

// Selector kinds for link-matching rules.
const (
	selAll    = iota // every link
	selNode          // any link touching one MDS endpoint
	selClient        // any link touching the client edge
	selPair          // both directions between two MDS endpoints
)

// LinkSel selects a set of directed links symmetrically (a rule on
// "link2-5" applies to 2→5 and 5→2).
type LinkSel struct {
	kind int
	a, b int
}

// Matches reports whether the directed link from→to is selected, given
// the fabric's client-edge endpoint index.
func (s LinkSel) Matches(from, to, clientEdge int) bool {
	switch s.kind {
	case selAll:
		return true
	case selNode:
		return from == s.a || to == s.a
	case selClient:
		return from == clientEdge || to == clientEdge
	default: // selPair
		return (from == s.a && to == s.b) || (from == s.b && to == s.a)
	}
}

func (s LinkSel) String() string {
	switch s.kind {
	case selAll:
		return "all"
	case selNode:
		return fmt.Sprintf("mds%d", s.a)
	case selClient:
		return "client"
	default:
		return fmt.Sprintf("link%d-%d", s.a, s.b)
	}
}

// NodeEvent schedules a crash or recovery of one MDS at a virtual time.
type NodeEvent struct {
	At   sim.Time
	Node int
}

// DropRule drops each matching message independently with probability P
// for the whole run.
type DropRule struct {
	Sel LinkSel
	P   float64
}

// LagRule adds Extra transit latency to matching messages sent during
// [From, To).
type LagRule struct {
	Sel      LinkSel
	From, To sim.Time
	Extra    sim.Time
}

// SlowWindow scales one node's CPU and disk service times by Factor
// during [From, To).
type SlowWindow struct {
	From, To sim.Time
	Node     int
	Factor   float64
}

// Partition drops every message between group A and group B (either
// direction) during [From, To). The client edge is never partitioned.
type Partition struct {
	From, To sim.Time
	A, B     []int
}

// Schedule is a full parsed fault schedule.
type Schedule struct {
	Crashes    []NodeEvent
	Recovers   []NodeEvent
	Drops      []DropRule
	Lags       []LagRule
	Slows      []SlowWindow
	Partitions []Partition

	src string
}

// NumRules counts the schedule's individual rules. The chaos shrinker
// uses this as its size metric: a shrunk repro must never be larger than
// the schedule it came from.
func (s *Schedule) NumRules() int {
	if s == nil {
		return 0
	}
	return len(s.Crashes) + len(s.Recovers) + len(s.Drops) +
		len(s.Lags) + len(s.Slows) + len(s.Partitions)
}

// Clone returns a deep copy that shares no slices with s, so shrinker
// candidates can be mutated freely.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		Crashes:  append([]NodeEvent(nil), s.Crashes...),
		Recovers: append([]NodeEvent(nil), s.Recovers...),
		Drops:    append([]DropRule(nil), s.Drops...),
		Lags:     append([]LagRule(nil), s.Lags...),
		Slows:    append([]SlowWindow(nil), s.Slows...),
		src:      s.src,
	}
	for _, p := range s.Partitions {
		c.Partitions = append(c.Partitions, Partition{
			From: p.From, To: p.To,
			A: append([]int(nil), p.A...),
			B: append([]int(nil), p.B...),
		})
	}
	return c
}

// Empty reports whether the schedule contains no events at all.
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.Crashes) == 0 && len(s.Recovers) == 0 &&
		len(s.Drops) == 0 && len(s.Lags) == 0 && len(s.Slows) == 0 &&
		len(s.Partitions) == 0)
}

// Source returns the DSL string the schedule was parsed from.
func (s *Schedule) Source() string { return s.src }

// SelAll selects every link.
func SelAll() LinkSel { return LinkSel{kind: selAll} }

// SelClient selects any link touching the client edge.
func SelClient() LinkSel { return LinkSel{kind: selClient} }

// SelNode selects any link touching MDS n.
func SelNode(n int) LinkSel { return LinkSel{kind: selNode, a: n} }

// SelPair selects both directions between MDS a and MDS b.
func SelPair(a, b int) LinkSel { return LinkSel{kind: selPair, a: a, b: b} }

// String renders the schedule in canonical DSL form: events in struct
// order (crashes, recovers, drops, lags, slows, partitions), each time
// in the largest unit that represents it exactly, floats in shortest
// round-trip form, partition groups as '.'-joined single indices. The
// output parses back — via ParseSchedule — into a structurally
// identical schedule (the round-trip property is tested), so
// programmatically built or shrunk schedules can be replayed verbatim
// with `mdsim -faults`.
func (s *Schedule) String() string {
	if s.Empty() {
		return ""
	}
	var parts []string
	for _, e := range s.Crashes {
		parts = append(parts, fmt.Sprintf("crash@%s:mds%d", sim.FormatTime(e.At), e.Node))
	}
	for _, e := range s.Recovers {
		parts = append(parts, fmt.Sprintf("recover@%s:mds%d", sim.FormatTime(e.At), e.Node))
	}
	for _, d := range s.Drops {
		parts = append(parts, fmt.Sprintf("drop@%s:%s", fmtFloat(d.P), d.Sel))
	}
	for _, l := range s.Lags {
		parts = append(parts, fmt.Sprintf("lag@%s-%s:%s+%s",
			sim.FormatTime(l.From), sim.FormatTime(l.To), l.Sel, sim.FormatTime(l.Extra)))
	}
	for _, w := range s.Slows {
		parts = append(parts, fmt.Sprintf("slow@%s-%s:mds%dx%s",
			sim.FormatTime(w.From), sim.FormatTime(w.To), w.Node, fmtFloat(w.Factor)))
	}
	for _, p := range s.Partitions {
		parts = append(parts, fmt.Sprintf("partition@%s-%s:{%s|%s}",
			sim.FormatTime(p.From), sim.FormatTime(p.To), fmtGroup(p.A), fmtGroup(p.B)))
	}
	return strings.Join(parts, ",")
}

// fmtFloat renders the shortest decimal that parses back to exactly v.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func fmtGroup(g []int) string {
	items := make([]string, len(g))
	for i, n := range g {
		items[i] = strconv.Itoa(n)
	}
	return strings.Join(items, ".")
}

// ParseSchedule parses the fault DSL described in the package comment.
// An empty (or all-whitespace) string yields an empty schedule.
func ParseSchedule(src string) (*Schedule, error) {
	s := &Schedule{src: strings.TrimSpace(src)}
	if s.src == "" {
		return s, nil
	}
	for _, ev := range strings.Split(s.src, ",") {
		ev = strings.TrimSpace(ev)
		if ev == "" {
			continue
		}
		if err := s.parseEvent(ev); err != nil {
			return nil, fmt.Errorf("fault event %q: %w", ev, err)
		}
	}
	return s, nil
}

func (s *Schedule) parseEvent(ev string) error {
	kind, rest, ok := strings.Cut(ev, "@")
	if !ok {
		return fmt.Errorf("missing '@' (want kind@spec:target)")
	}
	spec, target, ok := strings.Cut(rest, ":")
	if !ok {
		return fmt.Errorf("missing ':' (want kind@spec:target)")
	}
	switch kind {
	case "crash":
		node, err := parseNode(target)
		if err != nil {
			return err
		}
		if from, to, isWin := cutWindow(spec); isWin {
			f, t, err := parseWindow(from, to)
			if err != nil {
				return err
			}
			s.Crashes = append(s.Crashes, NodeEvent{At: f, Node: node})
			s.Recovers = append(s.Recovers, NodeEvent{At: t, Node: node})
			return nil
		}
		at, err := sim.ParseTime(spec)
		if err != nil {
			return err
		}
		s.Crashes = append(s.Crashes, NodeEvent{At: at, Node: node})
		return nil
	case "recover":
		node, err := parseNode(target)
		if err != nil {
			return err
		}
		at, err := sim.ParseTime(spec)
		if err != nil {
			return err
		}
		s.Recovers = append(s.Recovers, NodeEvent{At: at, Node: node})
		return nil
	case "drop":
		p, err := strconv.ParseFloat(spec, 64)
		if err != nil || !(p >= 0 && p <= 1) {
			return fmt.Errorf("drop probability %q not in [0, 1]", spec)
		}
		sel, err := parseSel(target)
		if err != nil {
			return err
		}
		s.Drops = append(s.Drops, DropRule{Sel: sel, P: p})
		return nil
	case "lag":
		from, to, isWin := cutWindow(spec)
		if !isWin {
			return fmt.Errorf("lag wants a time window (from-to), got %q", spec)
		}
		f, t, err := parseWindow(from, to)
		if err != nil {
			return err
		}
		selStr, extraStr, ok := strings.Cut(target, "+")
		if !ok {
			return fmt.Errorf("lag target wants selector+duration, got %q", target)
		}
		sel, err := parseSel(selStr)
		if err != nil {
			return err
		}
		extra, err := sim.ParseTime(extraStr)
		if err != nil {
			return err
		}
		if extra <= 0 {
			return fmt.Errorf("lag duration %q must be positive", extraStr)
		}
		s.Lags = append(s.Lags, LagRule{Sel: sel, From: f, To: t, Extra: extra})
		return nil
	case "slow":
		from, to, isWin := cutWindow(spec)
		if !isWin {
			return fmt.Errorf("slow wants a time window (from-to), got %q", spec)
		}
		f, t, err := parseWindow(from, to)
		if err != nil {
			return err
		}
		nodeStr, facStr, ok := strings.Cut(target, "x")
		if !ok {
			return fmt.Errorf("slow target wants mdsN x factor, got %q", target)
		}
		node, err := parseNode(nodeStr)
		if err != nil {
			return err
		}
		fac, err := strconv.ParseFloat(facStr, 64)
		if err != nil || !(fac >= 1) || math.IsInf(fac, 1) {
			return fmt.Errorf("slow factor %q must be >= 1", facStr)
		}
		s.Slows = append(s.Slows, SlowWindow{From: f, To: t, Node: node, Factor: fac})
		return nil
	case "partition":
		from, to, isWin := cutWindow(spec)
		if !isWin {
			return fmt.Errorf("partition wants a time window (from-to), got %q", spec)
		}
		f, t, err := parseWindow(from, to)
		if err != nil {
			return err
		}
		if !strings.HasPrefix(target, "{") || !strings.HasSuffix(target, "}") {
			return fmt.Errorf("partition target wants {groupA|groupB}, got %q", target)
		}
		aStr, bStr, ok := strings.Cut(target[1:len(target)-1], "|")
		if !ok {
			return fmt.Errorf("partition target wants {groupA|groupB}, got %q", target)
		}
		a, err := parseGroup(aStr)
		if err != nil {
			return err
		}
		b, err := parseGroup(bStr)
		if err != nil {
			return err
		}
		for _, n := range a {
			for _, m := range b {
				if n == m {
					return fmt.Errorf("partition groups overlap on node %d", n)
				}
			}
		}
		s.Partitions = append(s.Partitions, Partition{From: f, To: t, A: a, B: b})
		return nil
	default:
		return fmt.Errorf("unknown fault kind %q (want crash, recover, drop, lag, slow, or partition)", kind)
	}
}

// Validate checks node indices against the cluster size. It is separate
// from parsing so the DSL can be validated before a cluster exists and
// re-checked once the size is known.
func (s *Schedule) Validate(numMDS int) error {
	check := func(n int) error {
		if n < 0 || n >= numMDS {
			return fmt.Errorf("fault schedule names mds%d, cluster has %d nodes", n, numMDS)
		}
		return nil
	}
	for _, e := range s.Crashes {
		if err := check(e.Node); err != nil {
			return err
		}
	}
	for _, e := range s.Recovers {
		if err := check(e.Node); err != nil {
			return err
		}
	}
	for _, w := range s.Slows {
		if err := check(w.Node); err != nil {
			return err
		}
	}
	for _, d := range s.Drops {
		if d.Sel.kind == selNode {
			if err := check(d.Sel.a); err != nil {
				return err
			}
		}
		if d.Sel.kind == selPair {
			if err := check(d.Sel.a); err != nil {
				return err
			}
			if err := check(d.Sel.b); err != nil {
				return err
			}
		}
	}
	for _, l := range s.Lags {
		if l.Sel.kind == selNode {
			if err := check(l.Sel.a); err != nil {
				return err
			}
		}
		if l.Sel.kind == selPair {
			if err := check(l.Sel.a); err != nil {
				return err
			}
			if err := check(l.Sel.b); err != nil {
				return err
			}
		}
	}
	for _, p := range s.Partitions {
		for _, n := range p.A {
			if err := check(n); err != nil {
				return err
			}
		}
		for _, n := range p.B {
			if err := check(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// cutWindow splits "from-to" on the first '-' that separates two time
// specs. Returns isWin=false for a bare time.
func cutWindow(spec string) (from, to string, isWin bool) {
	i := strings.IndexByte(spec, '-')
	if i <= 0 || i == len(spec)-1 {
		return "", "", false
	}
	return spec[:i], spec[i+1:], true
}

func parseWindow(fromStr, toStr string) (from, to sim.Time, err error) {
	from, err = sim.ParseTime(fromStr)
	if err != nil {
		return 0, 0, err
	}
	to, err = sim.ParseTime(toStr)
	if err != nil {
		return 0, 0, err
	}
	if to <= from {
		return 0, 0, fmt.Errorf("window %s-%s is not ordered", fromStr, toStr)
	}
	return from, to, nil
}

func parseNode(s string) (int, error) {
	rest, ok := strings.CutPrefix(s, "mds")
	if !ok {
		return 0, fmt.Errorf("bad node %q (want mdsN)", s)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad node %q (want mdsN)", s)
	}
	return n, nil
}

func parseSel(s string) (LinkSel, error) {
	switch {
	case s == "all":
		return LinkSel{kind: selAll}, nil
	case s == "client":
		return LinkSel{kind: selClient}, nil
	case strings.HasPrefix(s, "mds"):
		n, err := parseNode(s)
		if err != nil {
			return LinkSel{}, err
		}
		return LinkSel{kind: selNode, a: n}, nil
	case strings.HasPrefix(s, "link"):
		aStr, bStr, ok := strings.Cut(s[len("link"):], "-")
		if !ok {
			return LinkSel{}, fmt.Errorf("bad link %q (want linkA-B)", s)
		}
		a, err1 := strconv.Atoi(aStr)
		b, err2 := strconv.Atoi(bStr)
		if err1 != nil || err2 != nil || a < 0 || b < 0 || a == b {
			return LinkSel{}, fmt.Errorf("bad link %q (want linkA-B, A != B)", s)
		}
		return LinkSel{kind: selPair, a: a, b: b}, nil
	default:
		return LinkSel{}, fmt.Errorf("bad link selector %q (want all, client, mdsN, or linkA-B)", s)
	}
}

// maxNodeIndex bounds a range in a partition group, which parseGroup
// expands index by index before Validate has a cluster size to hold it
// to.
const maxNodeIndex = 1 << 16

// parseGroup parses a partition side: items joined by '.', each a single
// index or an inclusive range lo-hi.
func parseGroup(s string) ([]int, error) {
	var out []int
	for _, item := range strings.Split(s, ".") {
		lo, hi, isRange := strings.Cut(item, "-")
		if !isRange {
			n, err := strconv.Atoi(item)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad partition group item %q", item)
			}
			out = append(out, n)
			continue
		}
		l, err1 := strconv.Atoi(lo)
		h, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || l < 0 || h < l || h >= maxNodeIndex {
			return nil, fmt.Errorf("bad partition group range %q", item)
		}
		for n := l; n <= h; n++ {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty partition group %q", s)
	}
	return out, nil
}
