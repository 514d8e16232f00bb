package plan

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dynmds/internal/cluster"
	"dynmds/internal/sim"
)

// The plan DSL is line-oriented. Blank lines and #-comments are
// skipped; everything else is a directive:
//
//	plan midas-create-hotspot
//	describe Single-directory create storm against one home.
//	quick 0.5
//	fs users=40 projects=8
//	cluster mds=8 strategy=DynamicSubtree cache=2500 net=fixed bucket=500ms
//	traffic clients=4000 rate=1.5 tenants=64 file-skew=1 mix=stat:70,readdir:20,create:10
//	matrix strategy=DynamicSubtree,FileHash
//	warmup 2s
//	duration 20s
//	quick traffic clients=2000
//	act phase warm @2s-6s rate=x2 mix=stat:70,readdir:20,chmod:8,create:2 skew=1.2
//	act hotspot storm @6s-14s rate=x4 mix=stat:10,create:90 target=/home/u0000 frac=0.8
//	optimize ops p99 load-spread
//
// The keys on the fs, cluster and traffic lines, and the warmup and
// duration directives, are the key table's (keys.go); Parse vets each
// value as it reads it. A matrix line with several key=v1,v2,...
// tokens is one axis whose keys co-vary: cell i binds each to its i-th
// value. "quick <directive>" lines — fs, cluster, traffic, matrix,
// warmup, duration — apply only under -quick, after the plan's own
// lines; a quick matrix replaces the values of the axis with its keys.
// String renders the canonical form — fixed directive order, keys in
// table order, values as written — so Parse∘String is the identity on
// canonical text (the same contract fault.Schedule keeps).

// Parse parses a plan from DSL text. The result is syntactically
// well-formed; call Validate (or Compile) for semantic checks.
func Parse(src string) (*Plan, error) {
	p := &Plan{}
	seen := map[string]bool{}
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		dir, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		// A quick line is its directive, bound into the quick lists.
		name, set, matrix := dir, &p.Set, &p.Matrix
		if sub, subRest, _ := strings.Cut(rest, " "); dir == "quick" && quickDirective(sub) {
			dir, rest, set, matrix = sub, strings.TrimSpace(subRest), &p.QuickSet, &p.QuickMatrix
			name = "quick " + dir
		}
		if dir != "matrix" && dir != "act" {
			if seen[name] {
				return nil, fmt.Errorf("plan line %d: duplicate %s directive", ln+1, name)
			}
			seen[name] = true
		}
		var err error
		switch dir {
		case "plan":
			p.Name = rest
		case "describe":
			p.Describe = rest
		case "quick":
			p.Quick, err = parseFloat(rest)
		case "fs", "cluster", "traffic":
			for _, tok := range strings.Fields(rest) {
				if err == nil {
					err = bindLine(set, dir, tok)
				}
			}
		case "matrix":
			err = parseMatrix(matrix, rest)
		case "act":
			err = parseAct(p, rest)
		case "optimize":
			p.Optimize = strings.Fields(rest)
		default:
			if k := lookupKey(dir); k == nil || k.line != "" {
				err = fmt.Errorf("unknown directive %q", dir)
			} else {
				err = bindLine(set, "", dir+"="+rest)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("plan line %d: %w", ln+1, err)
		}
	}
	if p.Name == "" {
		return nil, fmt.Errorf("plan text has no plan directive")
	}
	return p, nil
}

// quickDirective says whether a quick line names a directive rather
// than giving the quick factor.
func quickDirective(dir string) bool {
	k := lookupKey(dir)
	return dir == "fs" || dir == "cluster" || dir == "traffic" || dir == "matrix" || k != nil && k.line == ""
}

// bindLine records one key=value read from a DSL line: the key must be
// one the key table writes on that line, bound once, with a good value.
func bindLine(set *[]Setting, line, tok string) error {
	st, err := ParseSetting(tok)
	if err != nil {
		return err
	}
	if lookupKey(st.Key).line != line {
		return fmt.Errorf("unknown %s key %q", line, st.Key)
	}
	if lastIndex(*set, st.Key) >= 0 {
		return fmt.Errorf("%s bound twice", st.Key)
	}
	*set = append(*set, st)
	return nil
}

// parseMatrix parses one axis: key=v1,v2,... tokens.
func parseMatrix(matrix *[]Axis, rest string) error {
	var ax Axis
	for _, tok := range strings.Fields(rest) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "" || v == "" {
			return fmt.Errorf("matrix wants key=v1,v2,... got %q", tok)
		}
		ax = append(ax, Column{Key: k, Values: strings.Split(v, ",")})
	}
	if len(ax) == 0 {
		return fmt.Errorf("matrix wants key=v1,v2,...")
	}
	*matrix = append(*matrix, ax)
	return nil
}

// actKinds names an act by whether it has a hotspot target: a phase
// retargets rate, mix and skew for its window; a hotspot also
// concentrates a fraction of the target draws on one namespace path.
var actKinds = [2]string{"phase", "hotspot"}

// parseAct parses "act <kind> <name> @from-to [key=value]...".
func parseAct(p *Plan, rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 3 {
		return fmt.Errorf("act wants <kind> <name> @from-to, got %q", rest)
	}
	kind := slices.Index(actKinds[:], fields[0])
	if kind < 0 {
		return fmt.Errorf("unknown act kind %q (want %s or %s)", fields[0], actKinds[0], actKinds[1])
	}
	a := cluster.ActConfig{Name: fields[1], FileSkew: -1}
	win, ok := strings.CutPrefix(fields[2], "@")
	if !ok {
		return fmt.Errorf("act window %q must start with @", fields[2])
	}
	fromStr, toStr, ok := strings.Cut(win, "-")
	if !ok {
		return fmt.Errorf("act window %q wants @from-to", fields[2])
	}
	var err error
	if a.From, err = sim.ParseTime(fromStr); err != nil {
		return err
	}
	if a.To, err = sim.ParseTime(toStr); err != nil {
		return err
	}
	for _, tok := range fields[3:] {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return fmt.Errorf("act option %q wants key=value", tok)
		}
		switch k {
		case "rate":
			mul, ok := strings.CutPrefix(v, "x")
			if !ok {
				return fmt.Errorf("act rate %q wants a multiplier like x2", v)
			}
			if a.RateMul, err = parseFloat(mul); err != nil {
				return err
			}
			if a.RateMul <= 0 {
				return fmt.Errorf("act rate multiplier %q must be > 0", v)
			}
		case "mix":
			w, err := parseMix(v)
			if err != nil {
				return err
			}
			a.MixStat, a.MixReaddir, a.MixChmod, a.MixCreate, a.MixRename, a.MixUnlink = w[0], w[1], w[2], w[3], w[4], w[5]
		case "skew":
			if a.FileSkew, err = parseFloat(v); err != nil {
				return err
			}
			if a.FileSkew < 0 {
				return fmt.Errorf("act skew %q must be >= 0", v)
			}
		case "target":
			a.Hotspot = v
		case "frac":
			if a.HotFrac, err = parseFloat(v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown act option %q", k)
		}
	}
	if (a.Hotspot != "") != (kind == 1) {
		return fmt.Errorf("act %s %s: a hotspot act takes a target=path, a phase act none", fields[0], a.Name)
	}
	p.Acts = append(p.Acts, a)
	return nil
}

// mixOpNames is the canonical draw order shared with the traffic plane.
var mixOpNames = [...]string{"stat", "readdir", "chmod", "create", "rename", "unlink"}

// parseMix parses "stat:80,create:20" into weights in canonical op
// order (ops omitted weigh zero). A mix must weigh something: an
// all-zero one would silently be the population's default.
func parseMix(v string) ([6]float64, error) {
	var w [6]float64
	for _, part := range strings.Split(v, ",") {
		op, weight, ok := strings.Cut(part, ":")
		if !ok {
			return w, fmt.Errorf("mix entry %q wants op:weight", part)
		}
		i := slices.Index(mixOpNames[:], op)
		if i < 0 {
			return w, fmt.Errorf("unknown mix op %q (want %s)", op, strings.Join(mixOpNames[:], "/"))
		}
		f, err := parseFloat(weight)
		if err != nil || f < 0 {
			return w, fmt.Errorf("bad mix weight %q", part)
		}
		w[i] = f
	}
	if w[0]+w[1]+w[2]+w[3]+w[4]+w[5] <= 0 {
		return w, fmt.Errorf("%q has no weight", v)
	}
	return w, nil
}

// String renders the canonical DSL form.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s\n", p.Name)
	if p.Describe != "" {
		fmt.Fprintf(&b, "describe %s\n", p.Describe)
	}
	if p.Quick > 0 {
		fmt.Fprintf(&b, "quick %s\n", fmtFloat(p.Quick))
	}
	for _, prefix := range []string{"", "quick "} {
		set, matrix := p.Set, p.Matrix
		if prefix != "" {
			set, matrix = p.QuickSet, p.QuickMatrix
		}
		for _, line := range []string{"fs", "cluster", "traffic"} {
			writeLine(&b, prefix, set, line)
		}
		for _, ax := range matrix {
			fmt.Fprintf(&b, "%smatrix %s\n", prefix, ax)
		}
		writeLine(&b, prefix, set, "")
	}
	for _, a := range p.Acts {
		fmt.Fprintf(&b, "act %s %s @%s-%s", actKinds[b2i(a.Hotspot != "")], a.Name, sim.FormatTime(a.From), sim.FormatTime(a.To))
		if a.RateMul > 0 {
			fmt.Fprintf(&b, " rate=x%s", fmtFloat(a.RateMul))
		}
		if mix := fmtMix(a.Mix()); mix != "" {
			fmt.Fprintf(&b, " mix=%s", mix)
		}
		if a.FileSkew >= 0 {
			fmt.Fprintf(&b, " skew=%s", fmtFloat(a.FileSkew))
		}
		if a.Hotspot != "" {
			fmt.Fprintf(&b, " target=%s", a.Hotspot)
		}
		if a.HotFrac != 0 {
			fmt.Fprintf(&b, " frac=%s", fmtFloat(a.HotFrac))
		}
		b.WriteByte('\n')
	}
	if len(p.Optimize) > 0 {
		fmt.Fprintf(&b, "optimize %s\n", strings.Join(p.Optimize, " "))
	}
	return b.String()
}

// fmtMix renders the non-zero weights in canonical op order; "" when
// there are none.
func fmtMix(w [6]float64) string {
	var parts []string
	for i, x := range w {
		if x != 0 {
			parts = append(parts, mixOpNames[i]+":"+fmtFloat(x))
		}
	}
	return strings.Join(parts, ",")
}

// writeLine prints the settings that the key table writes on the
// named DSL line, in table order, after the prefix ("" or "quick "); ""
// names the keys that are directives of their own.
func writeLine(b *strings.Builder, prefix string, set []Setting, line string) {
	var parts []string
	for _, k := range keys {
		i := lastIndex(set, k.name)
		switch {
		case i < 0 || k.line != line:
		case line == "":
			fmt.Fprintf(b, "%s%s %s\n", prefix, k.name, set[i].Value)
		default:
			parts = append(parts, k.name+"="+set[i].Value)
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(b, "%s%s %s\n", prefix, line, strings.Join(parts, " "))
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func parseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return f, nil
}

// fmtFloat renders the shortest decimal that parses back to exactly v.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
