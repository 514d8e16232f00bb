package plan

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"dynmds/internal/chaos"
	"dynmds/internal/client"
	"dynmds/internal/cluster"
	"dynmds/internal/core"
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
// were written in. Some entries lean on it: clients reads the mds count
// and the open-loop switch that rate throws, ways that switch too, log
// overrides what cache sized, and redelegate-first and preempt-at need
// the balancer and traffic control that balance and replicate-at may
// switch off.
var keys = []key{
	numKey("users", "fs", "home directories in the generated namespace", 1, inf,
		func(c *cluster.Config) *int { return &c.FS.Users }),
	numKey("projects", "fs", "shared project trees in the generated namespace", 1, inf,
		func(c *cluster.Config) *int { return &c.FS.Projects }),

	numKey("mds", "cluster", "metadata servers, 1–64", 1, inf,
		func(c *cluster.Config) *int { return &c.NumMDS }),
	enumKey("strategy", "partitioning strategy: "+strings.Join(cluster.Strategies, ", "), cluster.Strategies,
		func(c *cluster.Config) *string { return &c.Strategy }),
	{"cache", "cluster", "per-MDS cache capacity in inode records; sizes the journal too",
		func(c *cluster.Config, v string) error {
			n, err := parseNum(v, 1, inf)
			c.MDS.CacheCapacity, c.MDS.Storage.LogCapacity = n, n
			return err
		},
		func(c *cluster.Config) string { return itoa(c.MDS.CacheCapacity) }},
	numKey("log", "cluster", "per-MDS journal capacity in records (unset = cache)", 1, inf,
		func(c *cluster.Config) *int { return &c.MDS.Storage.LogCapacity }),
	enumKey("net", "fabric latency model: fixed or queued", []string{net.ModelFixed, net.ModelQueued},
		func(c *cluster.Config) *string { return &c.NetModel }),
	{"faults", "cluster", "fault schedule, e.g. crash@3s-6s:mds1,drop@0.02:all (internal/fault)",
		func(c *cluster.Config, v string) error {
			_, err := fault.ParseSchedule(v)
			c.Faults = v
			return err
		},
		func(c *cluster.Config) string { return c.Faults }},
	timeKey("bucket", "cluster", "metrics series bucket", sim.Microsecond,
		func(c *cluster.Config) *sim.Time { return &c.SeriesBucket }),
	{"mechanism", "cluster", "client coherence: dumb, leases (open loop only), fanout (traffic control's hot-directory rule, any strategy) or both",
		func(c *cluster.Config, v string) error {
			i := slices.Index(mechanisms[:], v)
			if i < 0 {
				return fmt.Errorf("unknown mechanism %q (want %s)", v, strings.Join(mechanisms[:], ", "))
			}
			c.Lease.Enabled, c.Lease.Fanout = i&1 != 0, i&2 != 0
			return nil
		},
		func(c *cluster.Config) string { return mechanisms[b2i(c.Lease.Enabled)|b2i(c.Lease.Fanout)<<1] }},
	partKey("balance", "load-balancing interval, or off", "", balancer, core.DefaultBalancerConfig(),
		func(b *core.BalancerConfig, v string) (err error) {
			b.Interval, err = parseTime(v, sim.Microsecond)
			return
		},
		func(b *core.BalancerConfig) string { return sim.FormatTime(b.Interval) }),
	partKey("redelegate-first", "the balancer hands on imported trees first: on or off", "the balancer (balance is off)",
		balancer, core.DefaultBalancerConfig(),
		func(b *core.BalancerConfig, v string) (err error) {
			b.NoRedelegateFirst, err = parseSwitch(onOff, v)
			return
		},
		func(b *core.BalancerConfig) string { return onOff[b2i(b.NoRedelegateFirst)] }),
	partKey("replicate-at", "traffic control's replication threshold (unreplicate at a tenth), or off", "",
		traffic, *core.DefaultTrafficControl(),
		func(t *core.TrafficControl, v string) (err error) {
			t.ReplicateThreshold, err = parseNum(v, 0.0, inf)
			return
		},
		func(t *core.TrafficControl) string { return fmtFloat(t.ReplicateThreshold) }),
	partKey("preempt-at", "forwards of one item that fetch a replica preemptively (0 = never)", "traffic control (replicate-at is off)",
		traffic, *core.DefaultTrafficControl(),
		func(t *core.TrafficControl, v string) (err error) {
			t.PreemptiveThreshold, err = parseNum(v, 0.0, inf)
			return
		},
		func(t *core.TrafficControl) string { return fmtFloat(t.PreemptiveThreshold) }),
	numKey("dirhash-at", "cluster", "directory size past which DynamicSubtree hashes it (0 = never)", 0, inf,
		func(c *cluster.Config) *int { return &c.HashDirThreshold }),
	numKey("osds", "cluster", "shared OSD pool backing all MDS storage (0 = local disks)", 0, inf,
		func(c *cluster.Config) *int { return &c.OSDs }),
	switchKey("prefetch", "where prefetched siblings enter the cache", [2]string{"near-tail", "hot"},
		func(c *cluster.Config) *bool { return &c.MDS.PrefetchHot }),
	switchKey("embed", "StaticSubtree embeds inodes in their directories", onOff,
		func(c *cluster.Config) *bool { return &c.NoEmbed }),

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
	{"clients", "traffic", "open-loop clients when there is a rate, else closed-loop clients, a whole number per MDS",
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
	timeKey("think", "traffic", "closed loop: mean think time between requests", 0,
		func(c *cluster.Config) *sim.Time { return &c.Client.ThinkMean }),
	timeKey("retry", "traffic", "client retry timeout (0 = 150ms under a fault schedule)", 0,
		func(c *cluster.Config) *sim.Time { return &c.Client.RetryTimeout }),
	{"workload", "traffic", "closed loop: general, shift, flashcrowd or scientific",
		func(c *cluster.Config, v string) error {
			if !slices.Contains(workloads, cluster.WorkloadKind(v)) {
				return fmt.Errorf("unknown workload %q (want general, shift, flashcrowd or scientific)", v)
			}
			c.Workload.Kind = cluster.WorkloadKind(v)
			return nil
		},
		func(c *cluster.Config) string { return string(c.Workload.Kind) }},
	timeKey("shift-at", "traffic", "when the shift workload moves its clients", 0,
		func(c *cluster.Config) *sim.Time { return &c.Workload.ShiftTime }),
	numKey("tenants", "traffic", "open loop: tenant count (unset = clients/1024, at least 16)", 1, inf,
		pop(func(p *client.PopulationConfig) *int { return &p.Tenant.Tenants })),
	numKey("tenant-skew", "traffic", "open loop: Zipf exponent of tenant sizes (0 = uniform)", 0, inf,
		pop(func(p *client.PopulationConfig) *float64 { return &p.Tenant.TenantSkew })),
	numKey("file-skew", "traffic", "open loop: Zipf exponent of popularity inside a tenant's working set (0 = uniform)", 0, inf,
		pop(func(p *client.PopulationConfig) *float64 { return &p.Tenant.FileSkew })),
	numKey("working-set", "traffic", "open loop: files each tenant draws from (unset = 512)", 1, inf,
		pop(func(p *client.PopulationConfig) *int { return &p.Tenant.WorkingSet })),
	numKey("ways", "traffic", "location-hint ways per client (open loop: unset = 2)", 1, 1<<20,
		func(c *cluster.Config) *int {
			if c.OpenLoop != nil {
				return &c.OpenLoop.Ways
			}
			return &c.Client.KnownCap
		}),
	{"mix", "traffic", "open loop: op mix, e.g. stat:80,readdir:10,create:10 (unset = stat 80, readdir 10, chmod 8, create 2)",
		func(c *cluster.Config, v string) error {
			w, err := parseMix(v)
			if err != nil {
				return err
			}
			if c.OpenLoop == nil {
				return errClosedLoop
			}
			p := c.OpenLoop
			p.MixStat, p.MixReaddir, p.MixChmod, p.MixCreate, p.MixRename, p.MixUnlink = w[0], w[1], w[2], w[3], w[4], w[5]
			return nil
		},
		func(c *cluster.Config) string {
			if p := c.OpenLoop; p != nil {
				return fmtMix([...]float64{p.MixStat, p.MixReaddir, p.MixChmod, p.MixCreate, p.MixRename, p.MixUnlink})
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
	timeKey("checkpoint", "", "endurance: quiesce, simfsck and snapshot the run at this cadence (0s = never)", 0,
		func(c *cluster.Config) *sim.Time { return &c.Checkpoint }),
	numKey("soak", "", "rolling crash/recover cycles over nodes 1..n-1, written into faults (0 = none)", 0, inf,
		func(c *cluster.Config) *int { return &c.Soak }),
}

// mechanisms indexes the coherence mechanisms by leases | fanout<<1.
var mechanisms = [...]string{"dumb", "leases", "fanout", "both"}

// onOff indexes a switch by whether its bool is set; off also switches
// the balancer or traffic control off altogether.
var onOff = [2]string{"on", off}

const off = "off"

var workloads = []cluster.WorkloadKind{cluster.WorkGeneral, cluster.WorkShift, cluster.WorkFlashCrowd, cluster.WorkScientific}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// inf is the upper bound of a key that has none worth stating: 2^40,
// or the largest int where int is 32 bits wide.
const inf = min(1<<40, math.MaxInt)

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
			t, err := parseTime(v, lo)
			*at(c) = t
			return err
		},
		func(c *cluster.Config) string { return sim.FormatTime(*at(c)) }}
}

// parseTime parses a virtual time of at least lo.
func parseTime(v string, lo sim.Time) (sim.Time, error) {
	t, err := sim.ParseTime(v)
	if err == nil && t < lo {
		err = fmt.Errorf("bad time %q (want at least %s)", v, sim.FormatTime(lo))
	}
	return t, err
}

// parseSwitch reads one of a switch's two values: true for values[1].
func parseSwitch(values [2]string, v string) (bool, error) {
	i := slices.Index(values[:], v)
	if i < 0 {
		return false, fmt.Errorf("bad value %q (want %s or %s)", v, values[0], values[1])
	}
	return i == 1, nil
}

// switchKey is a cluster-line key that flips one bool: values[1] sets it.
func switchKey(name, doc string, values [2]string, at func(*cluster.Config) *bool) key {
	return key{name, "cluster", doc + ": " + values[0] + " or " + values[1],
		func(c *cluster.Config, v string) (err error) {
			*at(c), err = parseSwitch(values, v)
			return err
		},
		func(c *cluster.Config) string { return values[b2i(*at(c))] }}
}

func balancer(c *cluster.Config) **core.BalancerConfig { return &c.Balancer }
func traffic(c *cluster.Config) **core.TrafficControl  { return &c.Traffic }

// partKey is a cluster-line key on a part of the run that may be off:
// the balancer or traffic control. set edits a copy of the part (of
// def when it is off). A key with no needs switches the part — "off"
// removes it and any other value brings it back; a key that needs the
// part is refused while it is off.
func partKey[P any](name, doc, needs string, at func(*cluster.Config) **P, def P,
	set func(*P, string) error, get func(*P) string) key {
	return key{name, "cluster", doc,
		func(c *cluster.Config, v string) error {
			cur, part := at(c), def
			switch {
			case needs == "" && v == off:
				*cur = nil
				return nil
			case needs != "" && *cur == nil:
				return fmt.Errorf("needs %s", needs)
			case *cur != nil:
				part = **cur
			}
			err := set(&part, v)
			*cur = &part
			return err
		},
		func(c *cluster.Config) string {
			switch cur := *at(c); {
			case cur != nil:
				return get(cur)
			case needs == "":
				return off
			}
			return ""
		}}
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
	scratch := cluster.Config{NumMDS: 1, OpenLoop: &client.PopulationConfig{},
		Balancer: &core.BalancerConfig{}, Traffic: &core.TrafficControl{}}
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

// Apply overrides cfg with the settings (as bind does), then checks the
// run they make against the cluster's rulebook (cluster.Config.Validate,
// the checkpoint cadence's rules included). Last it turns a soak into
// its fault schedule: the rolling one chaos.GenerateRolling draws for
// the cell's seed, cluster and duration, written into faults, so a soak
// runs and replays as any faulted cell does. An empty list only checks.
func Apply(cfg *cluster.Config, set []Setting) error {
	if err := bind(cfg, set); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Soak == 0 {
		return nil
	}
	if cfg.Faults != "" {
		return fmt.Errorf("soak generates its own fault schedule; drop faults")
	}
	sched, err := chaos.GenerateRolling(chaos.RollingConfig{Seed: cfg.Seed, NumMDS: cfg.NumMDS, Cycles: cfg.Soak, Horizon: cfg.Duration})
	if err != nil {
		return fmt.Errorf("soak: %w", err)
	}
	cfg.Faults, cfg.Soak = sched.String(), 0
	return nil
}

// CommandLine renders the mdsim command that rebuilds cfg: the seed,
// then a -set for every key on which cfg differs from the default plan,
// found by walking the table in application order so that keys which
// read earlier ones (clients after mds and rate) come out right, then
// any further arguments. Words are quoted for a POSIX shell.
func CommandLine(cfg cluster.Config, more ...string) string {
	d := Default()
	cur, err := d.config(0, d.Set, 1)
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
