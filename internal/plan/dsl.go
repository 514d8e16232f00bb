package plan

import (
	"fmt"
	"strconv"
	"strings"

	"dynmds/internal/sim"
)

// The plan DSL is line-oriented. Blank lines and #-comments are
// skipped; everything else is a directive:
//
//	plan midas-create-hotspot
//	describe Single-directory create storm against one home.
//	quick 0.5
//	fs users=40 projects=8
//	cluster mds=8 strategy=DynamicSubtree cache=2500 shards=2 net=fixed bucket=500ms
//	traffic clients=4000 rate=1.5 tenants=64 file-skew=1 mix=stat:70,readdir:20,create:10
//	matrix strategy=DynamicSubtree,FileHash
//	warmup 2s
//	duration 20s
//	act phase warm @2s-6s rate=x2 mix=stat:70,readdir:20,chmod:8,create:2 skew=1.2
//	act hotspot storm @6s-14s rate=x4 mix=stat:10,create:90 target=/home/u0000 frac=0.8
//	optimize ops p99 load-spread
//
// The keys on the fs, cluster and traffic lines, and the warmup and
// duration directives, are the key table's (keys.go); Parse vets each
// value as it reads it. String renders the canonical form — fixed
// directive order, keys in table order, values as written — so
// Parse∘String is the identity on canonical text (the same contract
// fault.Schedule keeps).

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
		if dir != "matrix" && dir != "act" {
			if seen[dir] {
				return nil, fmt.Errorf("plan line %d: duplicate %s directive", ln+1, dir)
			}
			seen[dir] = true
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
					err = p.bindLine(dir, tok)
				}
			}
		case "matrix":
			err = parseMatrix(p, rest)
		case "act":
			err = parseAct(p, rest)
		case "optimize":
			p.Optimize = strings.Fields(rest)
		default:
			if k := lookupKey(dir); k == nil || k.line != "" {
				err = fmt.Errorf("unknown directive %q", dir)
			} else {
				err = p.bindLine("", dir+"="+rest)
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

// bindLine records one key=value read from a DSL line: the key must be
// one the key table writes on that line, bound once, with a good value.
func (p *Plan) bindLine(line, tok string) error {
	st, err := ParseSetting(tok)
	if err != nil {
		return err
	}
	if lookupKey(st.Key).line != line {
		return fmt.Errorf("unknown %s key %q", line, st.Key)
	}
	if _, dup := p.value(st.Key); dup {
		return fmt.Errorf("%s bound twice", st.Key)
	}
	p.Set = append(p.Set, st)
	return nil
}

func parseMatrix(p *Plan, rest string) error {
	k, v, ok := strings.Cut(rest, "=")
	if !ok || k == "" || v == "" {
		return fmt.Errorf("matrix wants key=v1,v2,... got %q", rest)
	}
	p.Matrix = append(p.Matrix, Axis{Key: k, Values: strings.Split(v, ",")})
	return nil
}

// parseAct parses "act <kind> <name> @from-to [key=value]...".
func parseAct(p *Plan, rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 3 {
		return fmt.Errorf("act wants <kind> <name> @from-to, got %q", rest)
	}
	a := Act{Kind: fields[0], Name: fields[1], Skew: -1}
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
			if a.Mix, err = parseMix(v); err != nil {
				return err
			}
		case "skew":
			if a.Skew, err = parseFloat(v); err != nil {
				return err
			}
			if a.Skew < 0 {
				return fmt.Errorf("act skew %q must be >= 0", v)
			}
		case "target":
			a.Target = v
		case "frac":
			if a.Frac, err = parseFloat(v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown act option %q", k)
		}
	}
	p.Acts = append(p.Acts, a)
	return nil
}

// mixOpNames is the canonical draw order shared with the traffic plane.
var mixOpNames = [...]string{"stat", "readdir", "chmod", "create", "rename", "unlink"}

// parseMix parses "stat:80,create:20" (ops omitted weigh zero).
func parseMix(v string) (*MixSpec, error) {
	m := &MixSpec{}
	slot := map[string]*float64{
		"stat": &m.Stat, "readdir": &m.Readdir, "chmod": &m.Chmod,
		"create": &m.Create, "rename": &m.Rename, "unlink": &m.Unlink,
	}
	for _, part := range strings.Split(v, ",") {
		op, w, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("mix entry %q wants op:weight", part)
		}
		dst, known := slot[op]
		if !known {
			return nil, fmt.Errorf("unknown mix op %q (want %s)", op, strings.Join(mixOpNames[:], "/"))
		}
		f, err := parseFloat(w)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		*dst = f
	}
	return m, nil
}

// String renders the canonical DSL form (Tweak functions are code and
// are not serialized).
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s\n", p.Name)
	if p.Describe != "" {
		fmt.Fprintf(&b, "describe %s\n", p.Describe)
	}
	if p.Quick > 0 {
		fmt.Fprintf(&b, "quick %s\n", fmtFloat(p.Quick))
	}
	for _, line := range []string{"fs", "cluster", "traffic"} {
		p.writeLine(&b, line)
	}
	for _, ax := range p.Matrix {
		fmt.Fprintf(&b, "matrix %s=%s\n", ax.Key, strings.Join(ax.Values, ","))
	}
	p.writeLine(&b, "")
	for _, a := range p.Acts {
		fmt.Fprintf(&b, "act %s %s @%s-%s", a.Kind, a.Name, sim.FormatTime(a.From), sim.FormatTime(a.To))
		if a.RateMul > 0 {
			fmt.Fprintf(&b, " rate=x%s", fmtFloat(a.RateMul))
		}
		if a.Mix != nil {
			fmt.Fprintf(&b, " mix=%s", fmtMix(a.Mix))
		}
		if a.Skew >= 0 {
			fmt.Fprintf(&b, " skew=%s", fmtFloat(a.Skew))
		}
		if a.Target != "" {
			fmt.Fprintf(&b, " target=%s", a.Target)
		}
		if a.Frac > 0 {
			fmt.Fprintf(&b, " frac=%s", fmtFloat(a.Frac))
		}
		b.WriteByte('\n')
	}
	if len(p.Optimize) > 0 {
		fmt.Fprintf(&b, "optimize %s\n", strings.Join(p.Optimize, " "))
	}
	return b.String()
}

// fmtMix renders the non-zero weights in canonical op order.
func fmtMix(m *MixSpec) string {
	ws := [...]float64{m.Stat, m.Readdir, m.Chmod, m.Create, m.Rename, m.Unlink}
	var parts []string
	for i, w := range ws {
		if w != 0 {
			parts = append(parts, mixOpNames[i]+":"+fmtFloat(w))
		}
	}
	if len(parts) == 0 {
		return "stat:0"
	}
	return strings.Join(parts, ",")
}

// writeLine prints the plan's settings that the key table writes on
// the named DSL line, in table order; "" names the keys that are
// directives of their own.
func (p *Plan) writeLine(b *strings.Builder, line string) {
	var parts []string
	for _, k := range keys {
		v, bound := p.value(k.name)
		switch {
		case !bound || k.line != line:
		case line == "":
			fmt.Fprintf(b, "%s %s\n", k.name, v)
		default:
			parts = append(parts, k.name+"="+v)
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(b, "%s %s\n", line, strings.Join(parts, " "))
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
