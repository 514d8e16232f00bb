package plan

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dynmds/internal/client"
	"dynmds/internal/cluster"
	"dynmds/internal/fault"
	"dynmds/internal/net"
	"dynmds/internal/sim"
)

// Setting binds one key of the key table to a value, as written:
// a token on a plan's fs/cluster/traffic line, a warmup or duration
// directive, or one mdsim -set.
type Setting struct{ Key, Value string }

func (s Setting) String() string { return s.Key + "=" + s.Value }

// ParseSetting parses "key=value" against the key table: the key must
// exist and the value must parse and be in range.
func ParseSetting(s string) (Setting, error) {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" || v == "" {
		return Setting{}, fmt.Errorf("%q wants key=value", s)
	}
	return Setting{k, v}, checkValue(k, v)
}

// A key is one knob of a run. The table below is the only place a knob
// is named: the DSL's fs/cluster/traffic lines, the warmup and duration
// directives, matrix axes and mdsim -set all resolve through it. Each
// entry parses and range-checks a value and applies it to a
// cluster.Config (set), and renders the config's current value back
// (get; "" when the run has no such value) for repro lines and the
// README table.
type key struct {
	name string
	line string // the DSL line the key is written on; "" = a directive of its own
	doc  string
	set  func(cfg *cluster.Config, v string) error
	get  func(cfg *cluster.Config) string
}

// keys is the table, in canonical order: the order a plan's String
// prints and the order settings are applied in, whatever order they
// were written in. Two entries lean on it — clients reads the mds count
// and the open-loop switch that rate throws.
var keys = []key{
	numKey("users", "fs", "home directories in the generated namespace", 1, inf,
		func(c *cluster.Config) *int { return &c.FS.Users }),
	numKey("projects", "fs", "shared project trees in the generated namespace", 1, inf,
		func(c *cluster.Config) *int { return &c.FS.Projects }),

	numKey("mds", "cluster", "metadata servers", 1, inf,
		func(c *cluster.Config) *int { return &c.NumMDS }),
	enumKey("strategy", "partitioning strategy: "+strings.Join(cluster.Strategies, ", "), cluster.Strategies,
		func(c *cluster.Config) *string { return &c.Strategy }),
	{"cache", "cluster", "per-MDS cache capacity in inode records (the bounded journal is sized to match)",
		func(c *cluster.Config, v string) error {
			n, err := parseNum(v, 1, inf)
			c.MDS.CacheCapacity, c.MDS.Storage.LogCapacity = n, n
			return err
		},
		func(c *cluster.Config) string { return itoa(c.MDS.CacheCapacity) }},
	numKey("shards", "cluster", "event-loop shards for one run (0 = the serial engine); sweeps shrink their worker pool so workers x shards fits the cores", 0, inf,
		func(c *cluster.Config) *int { return &c.Shards }),
	enumKey("net", "fabric latency model: fixed or queued", []string{net.ModelFixed, net.ModelQueued},
		func(c *cluster.Config) *string { return &c.NetModel }),
	numKey("link-bw", "cluster", "queued-model link bandwidth, bytes per simulated second (0 = 125e6); needs net=queued", 0, inf,
		func(c *cluster.Config) *float64 { return &c.LinkBandwidth }),
	{"faults", "cluster", "fault schedule, e.g. crash@3s-6s:mds1,drop@0.02:all (internal/fault)",
		func(c *cluster.Config, v string) error {
			_, err := fault.ParseSchedule(v)
			c.Faults = v
			return err
		},
		func(c *cluster.Config) string { return c.Faults }},
	timeKey("bucket", "cluster", "metrics series bucket", sim.Microsecond,
		func(c *cluster.Config) *sim.Time { return &c.SeriesBucket }),
	{"mechanism", "cluster", "client coherence: dumb, leases (needs an open-loop population), fanout (hot-directory replica push) or both",
		func(c *cluster.Config, v string) error {
			i := slices.Index(mechanisms[:], v)
			if i < 0 {
				return fmt.Errorf("unknown mechanism %q (want %s)", v, strings.Join(mechanisms[:], ", "))
			}
			c.Lease.Enabled, c.Lease.Fanout = i&1 != 0, i&2 != 0
			return nil
		},
		func(c *cluster.Config) string { return mechanisms[b2i(c.Lease.Enabled)|b2i(c.Lease.Fanout)<<1] }},

	{"rate", "traffic", "per-client mean arrival rate, ops/s; giving one makes the population open loop (flyweight clients, Poisson arrivals)",
		func(c *cluster.Config, v string) error {
			f, err := parseNum(v, 0.0, inf)
			if err != nil || f == 0 {
				return fmt.Errorf("bad rate %q (want a number > 0)", v)
			}
			if c.OpenLoop == nil {
				c.OpenLoop = &client.PopulationConfig{}
			}
			c.OpenLoop.Rate = f
			return nil
		},
		func(c *cluster.Config) string {
			if c.OpenLoop == nil {
				return ""
			}
			return fmtFloat(c.OpenLoop.Rate)
		}},
	{"clients", "traffic", "client population: open-loop clients when the traffic has a rate, else closed-loop clients spread evenly over the MDS nodes (rounded down to a multiple of mds; at least mds)",
		func(c *cluster.Config, v string) error {
			n, err := parseNum(v, 1, inf)
			if c.OpenLoop != nil {
				c.OpenLoop.Clients = n
			} else if c.NumMDS > 0 {
				if err == nil && n < c.NumMDS {
					return fmt.Errorf("a closed-loop population of %d cannot put a client on each of %d MDS nodes", n, c.NumMDS)
				}
				c.ClientsPerMDS = n / c.NumMDS
			}
			return err
		},
		func(c *cluster.Config) string {
			if c.OpenLoop != nil {
				return itoa(c.OpenLoop.Clients)
			}
			return itoa(c.NumMDS * c.ClientsPerMDS)
		}},
	numKey("tenants", "traffic", "open loop: tenant count (unset = clients/1024, at least 16)", 1, inf,
		pop(func(p *client.PopulationConfig) *int { return &p.Tenant.Tenants })),
	numKey("tenant-skew", "traffic", "open loop: Zipf exponent of tenant sizes (0 = uniform)", 0, inf,
		pop(func(p *client.PopulationConfig) *float64 { return &p.Tenant.TenantSkew })),
	numKey("file-skew", "traffic", "open loop: Zipf exponent of popularity inside a tenant's working set (0 = uniform)", 0, inf,
		pop(func(p *client.PopulationConfig) *float64 { return &p.Tenant.FileSkew })),
	numKey("working-set", "traffic", "open loop: files each tenant draws from (unset = 512)", 1, inf,
		pop(func(p *client.PopulationConfig) *int { return &p.Tenant.WorkingSet })),
	numKey("ways", "traffic", "open loop: location-hint ways per client (unset = 2)", 1, 1<<20,
		pop(func(p *client.PopulationConfig) *int { return &p.Ways })),
	{"mix", "traffic", "open loop: op mix, e.g. stat:80,readdir:10,create:10 (unset = stat 80, readdir 10, chmod 8, create 2)",
		func(c *cluster.Config, v string) error {
			m, err := parseMix(v)
			if err != nil {
				return err
			}
			if c.OpenLoop == nil {
				return errClosedLoop
			}
			p := c.OpenLoop
			p.MixStat, p.MixReaddir, p.MixChmod = m.Stat, m.Readdir, m.Chmod
			p.MixCreate, p.MixRename, p.MixUnlink = m.Create, m.Rename, m.Unlink
			return nil
		},
		func(c *cluster.Config) string {
			if p := c.OpenLoop; p != nil {
				m := MixSpec{p.MixStat, p.MixReaddir, p.MixChmod, p.MixCreate, p.MixRename, p.MixUnlink}
				if m.sum() > 0 {
					return fmtMix(&m)
				}
			}
			return ""
		}},
	numKey("diurnal", "traffic", "open loop: diurnal rate-modulation amplitude", 0, 1,
		pop(func(p *client.PopulationConfig) *float64 { return &p.DiurnalAmp })),
	numKey("burst-prob", "traffic", "open loop: per-tenant-epoch burst probability", 0, 1,
		pop(func(p *client.PopulationConfig) *float64 { return &p.BurstProb })),

	timeKey("warmup", "", "simulated time before measurement starts; must be shorter than duration", 0,
		func(c *cluster.Config) *sim.Time { return &c.Warmup }),
	timeKey("duration", "", "simulated length of the run", sim.Microsecond,
		func(c *cluster.Config) *sim.Time { return &c.Duration }),
}

// mechanisms indexes the coherence mechanisms by leases | fanout<<1.
var mechanisms = [...]string{"dumb", "leases", "fanout", "both"}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// inf is the upper bound of a key that has none worth stating.
const inf = 1 << 40

var errClosedLoop = errors.New("needs an open-loop population (a traffic rate)")

// pop addresses a field of the open-loop population; nil on a
// closed-loop run, where such a key has nothing to act on.
func pop[T any](f func(*client.PopulationConfig) *T) func(*cluster.Config) *T {
	return func(c *cluster.Config) *T {
		if c.OpenLoop == nil {
			return nil
		}
		return f(c.OpenLoop)
	}
}

// parseNum parses a number of type T within [lo, hi]. Integers may be
// written in any float form that is whole ("1e6").
func parseNum[T int | float64](v string, lo, hi T) (T, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < float64(lo) || f > float64(hi) || float64(T(f)) != f {
		kind, bound := "number", fmt.Sprintf(">= %v", lo)
		if _, whole := any(lo).(int); whole {
			kind = "whole number"
		}
		if hi != inf {
			bound = fmt.Sprintf("in %v..%v", lo, hi)
		}
		return lo, fmt.Errorf("bad value %q (want a %s %s)", v, kind, bound)
	}
	return T(f), nil
}

// numKey is a key held in one numeric field.
func numKey[T int | float64](name, line, doc string, lo, hi T, at func(*cluster.Config) *T) key {
	return key{name, line, doc,
		func(c *cluster.Config, v string) error {
			n, err := parseNum(v, lo, hi)
			if err != nil {
				return err
			}
			p := at(c)
			if p == nil {
				return errClosedLoop
			}
			*p = n
			return nil
		},
		func(c *cluster.Config) string {
			if p := at(c); p != nil {
				return fmt.Sprint(*p)
			}
			return ""
		}}
}

// timeKey is a key held in one virtual-time field.
func timeKey(name, line, doc string, lo sim.Time, at func(*cluster.Config) *sim.Time) key {
	return key{name, line, doc,
		func(c *cluster.Config, v string) error {
			t, err := sim.ParseTime(v)
			if err == nil && t < lo {
				err = fmt.Errorf("bad time %q (want at least %s)", v, sim.FormatTime(lo))
			}
			*at(c) = t
			return err
		},
		func(c *cluster.Config) string { return sim.FormatTime(*at(c)) }}
}

// enumKey is a cluster-line key that takes one of a fixed set of names.
func enumKey(name, doc string, values []string, at func(*cluster.Config) *string) key {
	return key{name, "cluster", doc,
		func(c *cluster.Config, v string) error {
			if !slices.Contains(values, v) {
				return fmt.Errorf("unknown %s %q (want %s)", name, v, strings.Join(values, ", "))
			}
			*at(c) = v
			return nil
		},
		func(c *cluster.Config) string { return *at(c) }}
}

func lookupKey(name string) *key {
	for i := range keys {
		if keys[i].name == name {
			return &keys[i]
		}
	}
	return nil
}

func keyNames() string {
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = k.name
	}
	return strings.Join(names, " ")
}

// checkValue vets one binding on its own: the key exists and the value
// parses and is in range. Whether the key fits the run it lands on (a
// traffic key on a closed-loop run) is decided when it is applied.
func checkValue(name, v string) error {
	k := lookupKey(name)
	if k == nil {
		return fmt.Errorf("unknown key %q (known: %s)", name, keyNames())
	}
	scratch := cluster.Config{NumMDS: 1, OpenLoop: &client.PopulationConfig{}}
	if err := k.set(&scratch, v); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// bind applies the settings in key-table order, the last binding of a
// key winning.
func bind(cfg *cluster.Config, set []Setting) error {
	for _, s := range set {
		if lookupKey(s.Key) == nil {
			return fmt.Errorf("unknown key %q (known: %s)", s.Key, keyNames())
		}
	}
	for _, k := range keys {
		if i := lastIndex(set, k.name); i >= 0 {
			if err := k.set(cfg, set[i].Value); err != nil {
				return fmt.Errorf("%s: %w", set[i], err)
			}
		}
	}
	return nil
}

// lastIndex finds the last binding of a key.
func lastIndex(set []Setting, key string) int {
	for i := len(set) - 1; i >= 0; i-- {
		if set[i].Key == key {
			return i
		}
	}
	return -1
}

// Apply overrides cfg with the settings (as bind does) and then checks
// the constraints that span keys. An empty list only checks.
func Apply(cfg *cluster.Config, set []Setting) error {
	if err := bind(cfg, set); err != nil {
		return err
	}
	if cfg.Warmup >= cfg.Duration {
		return fmt.Errorf("warmup %s does not fit the %s duration: nothing would be measured", sim.FormatTime(cfg.Warmup), sim.FormatTime(cfg.Duration))
	}
	if cfg.LinkBandwidth != 0 && cfg.NetModel != net.ModelQueued {
		return fmt.Errorf("link-bw needs net=%s (the fixed model has no link bandwidth)", net.ModelQueued)
	}
	if cfg.Lease.Enabled && cfg.OpenLoop == nil {
		return fmt.Errorf("mechanism: client leases need an open-loop population (a traffic rate)")
	}
	if cfg.OSDs > 0 && min(cfg.Shards, cfg.NumMDS) > 1 {
		return fmt.Errorf("shards: sharded execution cannot drive a shared OSD pool (this run has %d devices)", cfg.OSDs)
	}
	sched, err := fault.ParseSchedule(cfg.Faults)
	if err == nil {
		err = sched.Validate(cfg.NumMDS)
	}
	if err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	return nil
}

// CommandLine renders the mdsim command that rebuilds cfg: the seed,
// then a -set for every key on which cfg differs from the default plan,
// found by walking the table in application order so that keys which
// read earlier ones (clients after mds and rate) come out right, then
// any further arguments. Words are quoted for a POSIX shell.
func CommandLine(cfg cluster.Config, more ...string) string {
	cur, err := Default().baseConfig(Options{}, 1)
	if err != nil {
		panic(err)
	}
	line := "mdsim -seed " + strconv.FormatInt(cfg.Seed, 10)
	for _, k := range keys {
		want := k.get(&cfg)
		if want == "" || want == k.get(&cur) {
			continue
		}
		if err := k.set(&cur, want); err != nil {
			panic(fmt.Sprintf("plan: key %s cannot take back its own value %q: %v", k.name, want, err))
		}
		line += " -set " + shellQuote(k.name+"="+want)
	}
	for _, arg := range more {
		line += " " + shellQuote(arg)
	}
	return line
}

// shellQuote single-quotes s unless it is plainly safe.
func shellQuote(s string) string {
	if strings.IndexFunc(s, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || strings.ContainsRune("=-_.,:/@+", r))
	}) < 0 {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}
