// Package fault is the deterministic fault injector. A Schedule — parsed
// from a compact DSL or built by NewSchedule — is one list of Rules
// against a simulated cluster: MDS crashes and recoveries at virtual
// times, per-link message drop probabilities, windowed latency spikes,
// slow-node service-time scaling, and network partitions between MDS
// groups. Rules are kept in Kind order, and within a kind in the order
// they were written; every order a run can observe follows from that.
// A Plane binds a schedule to a seeded RNG stream and implements
// net.FaultPlane, so the message fabric consults it on every send.
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
	"cmp"
	"fmt"
	"math"
	"slices"
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

// nodes lists the MDS indices the selector names.
func (s LinkSel) nodes() []int {
	switch s.kind {
	case selNode:
		return []int{s.a}
	case selPair:
		return []int{s.a, s.b}
	}
	return nil
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

// Kind names what a rule does. A schedule keeps its rules in Kind
// order, and within a kind in the order they were written: that one
// ordering rule fixes the canonical text, the order the plane's drop
// rules draw in, the order the cluster posts node events in and the
// shrinker's candidate order.
type Kind uint8

// The rule kinds, in schedule order.
const (
	Crash     Kind = iota // node Node fails at From
	Recover               // node Node recovers at From
	Drop                  // links Sel drop each message with probability P, all run
	Lag                   // links Sel add Extra transit latency in [From, To)
	Slow                  // node Node serves Factor times slower in [From, To)
	Partition             // groups A and B cannot talk in [From, To); never the client edge
)

// Rule is one fault; which fields it uses depends on its Kind.
type Rule struct {
	Kind     Kind
	From, To sim.Time
	Node     int
	Sel      LinkSel
	P        float64
	Extra    sim.Time
	Factor   float64
	A, B     []int
}

// Schedule is a full fault schedule: its rules in Kind order.
type Schedule struct {
	Rules []Rule

	src string
}

// NewSchedule builds a schedule from rules, sorting them stably into
// Kind order in place. ParseSchedule and the chaos generators build
// through it; cloning, deleting a rule or moving a window keeps the
// order.
func NewSchedule(rules []Rule) *Schedule {
	slices.SortStableFunc(rules, func(a, b Rule) int { return cmp.Compare(a.Kind, b.Kind) })
	return &Schedule{Rules: rules}
}

// Clone returns a deep copy that shares no slices with s, so shrinker
// candidates can be mutated freely.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{Rules: slices.Clone(s.Rules), src: s.src}
	for i := range c.Rules {
		c.Rules[i].A = slices.Clone(c.Rules[i].A)
		c.Rules[i].B = slices.Clone(c.Rules[i].B)
	}
	return c
}

// Empty reports whether the schedule contains no events at all.
func (s *Schedule) Empty() bool { return s == nil || len(s.Rules) == 0 }

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

// String renders the schedule in canonical DSL form: rules in schedule
// order, each time in the largest unit that represents it exactly,
// floats in shortest round-trip form, partition groups as '.'-joined
// single indices. The output parses back — via ParseSchedule — into a
// structurally identical schedule (the round-trip property is tested),
// so programmatically built or shrunk schedules can be replayed
// verbatim with `mdsim -set faults=`.
func (s *Schedule) String() string {
	if s.Empty() {
		return ""
	}
	parts := make([]string, len(s.Rules))
	for i, r := range s.Rules {
		from, to := sim.FormatTime(r.From), sim.FormatTime(r.To)
		switch r.Kind {
		case Crash:
			parts[i] = fmt.Sprintf("crash@%s:mds%d", from, r.Node)
		case Recover:
			parts[i] = fmt.Sprintf("recover@%s:mds%d", from, r.Node)
		case Drop:
			parts[i] = fmt.Sprintf("drop@%s:%s", fmtFloat(r.P), r.Sel)
		case Lag:
			parts[i] = fmt.Sprintf("lag@%s-%s:%s+%s", from, to, r.Sel, sim.FormatTime(r.Extra))
		case Slow:
			parts[i] = fmt.Sprintf("slow@%s-%s:mds%dx%s", from, to, r.Node, fmtFloat(r.Factor))
		case Partition:
			parts[i] = fmt.Sprintf("partition@%s-%s:{%s|%s}", from, to, fmtGroup(r.A), fmtGroup(r.B))
		}
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
	src = strings.TrimSpace(src)
	var rules []Rule
	if src != "" {
		for _, ev := range strings.Split(src, ",") {
			ev = strings.TrimSpace(ev)
			if ev == "" {
				continue
			}
			var err error
			if rules, err = parseEvent(rules, ev); err != nil {
				return nil, fmt.Errorf("fault event %q: %w", ev, err)
			}
		}
	}
	s := NewSchedule(rules)
	s.src = src
	return s, nil
}

// parseEvent appends the rules one event spells (a windowed crash is a
// crash and a recovery) to rules.
func parseEvent(rules []Rule, ev string) ([]Rule, error) {
	kind, rest, ok := strings.Cut(ev, "@")
	if !ok {
		return nil, fmt.Errorf("missing '@' (want kind@spec:target)")
	}
	spec, target, ok := strings.Cut(rest, ":")
	if !ok {
		return nil, fmt.Errorf("missing ':' (want kind@spec:target)")
	}
	switch kind {
	case "crash":
		node, err := parseNode(target)
		if err != nil {
			return nil, err
		}
		if from, to, isWin := cutWindow(spec); isWin {
			f, t, err := parseWindow(from, to)
			if err != nil {
				return nil, err
			}
			return append(rules, Rule{Kind: Crash, From: f, Node: node}, Rule{Kind: Recover, From: t, Node: node}), nil
		}
		at, err := sim.ParseTime(spec)
		if err != nil {
			return nil, err
		}
		return append(rules, Rule{Kind: Crash, From: at, Node: node}), nil
	case "recover":
		node, err := parseNode(target)
		if err != nil {
			return nil, err
		}
		at, err := sim.ParseTime(spec)
		if err != nil {
			return nil, err
		}
		return append(rules, Rule{Kind: Recover, From: at, Node: node}), nil
	case "drop":
		p, err := strconv.ParseFloat(spec, 64)
		if err != nil || !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("drop probability %q not in [0, 1]", spec)
		}
		sel, err := parseSel(target)
		if err != nil {
			return nil, err
		}
		return append(rules, Rule{Kind: Drop, Sel: sel, P: p}), nil
	}
	// The rest are windowed.
	if kind != "lag" && kind != "slow" && kind != "partition" {
		return nil, fmt.Errorf("unknown fault kind %q (want crash, recover, drop, lag, slow, or partition)", kind)
	}
	from, to, isWin := cutWindow(spec)
	if !isWin {
		return nil, fmt.Errorf("%s wants a time window (from-to), got %q", kind, spec)
	}
	f, t, err := parseWindow(from, to)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "lag":
		selStr, extraStr, ok := strings.Cut(target, "+")
		if !ok {
			return nil, fmt.Errorf("lag target wants selector+duration, got %q", target)
		}
		sel, err := parseSel(selStr)
		if err != nil {
			return nil, err
		}
		extra, err := sim.ParseTime(extraStr)
		if err != nil {
			return nil, err
		}
		if extra <= 0 {
			return nil, fmt.Errorf("lag duration %q must be positive", extraStr)
		}
		return append(rules, Rule{Kind: Lag, From: f, To: t, Sel: sel, Extra: extra}), nil
	case "slow":
		nodeStr, facStr, ok := strings.Cut(target, "x")
		if !ok {
			return nil, fmt.Errorf("slow target wants mdsN x factor, got %q", target)
		}
		node, err := parseNode(nodeStr)
		if err != nil {
			return nil, err
		}
		fac, err := strconv.ParseFloat(facStr, 64)
		if err != nil || !(fac >= 1) || math.IsInf(fac, 1) {
			return nil, fmt.Errorf("slow factor %q must be >= 1", facStr)
		}
		return append(rules, Rule{Kind: Slow, From: f, To: t, Node: node, Factor: fac}), nil
	}
	if !strings.HasPrefix(target, "{") || !strings.HasSuffix(target, "}") {
		return nil, fmt.Errorf("partition target wants {groupA|groupB}, got %q", target)
	}
	aStr, bStr, ok := strings.Cut(target[1:len(target)-1], "|")
	if !ok {
		return nil, fmt.Errorf("partition target wants {groupA|groupB}, got %q", target)
	}
	a, err := parseGroup(aStr)
	if err != nil {
		return nil, err
	}
	b, err := parseGroup(bStr)
	if err != nil {
		return nil, err
	}
	for _, n := range a {
		if slices.Contains(b, n) {
			return nil, fmt.Errorf("partition groups overlap on node %d", n)
		}
	}
	return append(rules, Rule{Kind: Partition, From: f, To: t, A: a, B: b}), nil
}

// Validate checks node indices against the cluster size. It is separate
// from parsing so the DSL can be validated before a cluster exists and
// re-checked once the size is known.
func (s *Schedule) Validate(numMDS int) error {
	for _, r := range s.Rules {
		named := []int{r.Node}
		switch r.Kind {
		case Drop, Lag:
			named = r.Sel.nodes()
		case Partition:
			named = slices.Concat(r.A, r.B)
		}
		for _, n := range named {
			if n < 0 || n >= numMDS {
				return fmt.Errorf("fault schedule names mds%d, cluster has %d nodes", n, numMDS)
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
