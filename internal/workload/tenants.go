package workload

import (
	"math"
	"sort"
	"strconv"

	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

// TenantConfig parameterises the open-loop tenant model: the client
// population is carved into tenants with Zipf-distributed sizes, and
// each tenant works against a bounded working set sampled from one home
// subtree of the frozen snapshot, with Zipf popularity inside the set.
type TenantConfig struct {
	// Tenants is the number of tenants. Zero derives clients/1024,
	// minimum 16 (capped at the client count).
	Tenants int
	// TenantSkew is the Zipf exponent for tenant sizes: tenant i gets
	// weight (i+1)^-TenantSkew. Zero means uniform sizes.
	TenantSkew float64
	// FileSkew is the Zipf exponent for target popularity inside a
	// tenant's working set. Zero means uniform.
	FileSkew float64
	// WorkingSet bounds the files (and directories) each tenant draws
	// from. Zero means 512.
	WorkingSet int
}

func (c TenantConfig) withDefaults(clients int) TenantConfig {
	if c.Tenants <= 0 {
		c.Tenants = clients / 1024
		if c.Tenants < 16 {
			c.Tenants = 16
		}
	}
	if c.Tenants > clients {
		c.Tenants = clients
	}
	if c.WorkingSet <= 0 {
		c.WorkingSet = 512
	}
	if c.TenantSkew < 0 {
		c.TenantSkew = 0
	}
	if c.FileSkew < 0 {
		c.FileSkew = 0
	}
	return c
}

// Tenants is the materialised tenant model: flat slabs only, no
// per-tenant pointers beyond the slice headers, so the setup cost and
// footprint stay O(tenants · working set) regardless of client count.
type Tenants struct {
	cfg       TenantConfig
	clientOff []int32 // prefix sums of clients per tenant, len T+1

	// The files and directories some working set holds, each once: the
	// only pointer slabs. The files pool may include directories —
	// Stat/Chmod on a directory is a valid op.
	poolF, poolD []*namespace.Inode

	// Working-set slabs of indices into the pools, all tenants
	// concatenated; tenant t owns files[fileOff[t]:fileOff[t+1]] (ditto
	// dirs), hottest first.
	files   []int32
	dirs    []int32
	fileOff []int32
	dirOff  []int32

	// Vose alias tables: O(1) Zipf-popularity draws with two uniform
	// words. A table is a pure function of (set size, skew), so there is
	// one per distinct working-set size, shared by files and directories:
	// the table for sets of n entries starts at prob[tabOff[n]] (-1: no
	// tenant has a set that size).
	prob   []float64
	alias  []int32
	tabOff []int32
}

// NewTenants builds the tenant model for a client population over the
// given home directories. Deterministic for (cfg, clients, seed) and a
// fixed snapshot.
func NewTenants(cfg TenantConfig, clients int, homes []*namespace.Inode, seed int64) *Tenants {
	if clients < 1 {
		panic("workload: NewTenants with no clients")
	}
	if len(homes) == 0 {
		panic("workload: NewTenants with no home directories")
	}
	cfg = cfg.withDefaults(clients)
	t := &Tenants{cfg: cfg}
	t.assignClients(clients)
	t.buildWorkingSets(homes, seed)
	return t
}

// NumTenants returns the tenant count after defaulting.
func (t *Tenants) NumTenants() int { return len(t.clientOff) - 1 }

// TenantClients returns how many clients tenant i has.
func (t *Tenants) TenantClients(i int) int { return int(t.clientOff[i+1] - t.clientOff[i]) }

// ClientTenant maps a client id to its tenant (contiguous ranges): a
// binary search over the prefix sums, on every open-loop arrival, hence
// without sort.Search's closure.
func (t *Tenants) ClientTenant(client int) int {
	lo, hi := 0, t.NumTenants()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(t.clientOff[mid+1]) > client {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TenantFrom is ClientTenant for a caller walking clients in ascending
// order: it advances tn, the tenant of an earlier client, to client's.
func (t *Tenants) TenantFrom(tn, client int) int {
	for int(t.clientOff[tn+1]) <= client {
		tn++
	}
	return tn
}

// FootprintBytes returns the slab bytes (8 per pointer/float, 4 per
// int32), for the population's memory accounting.
func (t *Tenants) FootprintBytes() int64 {
	ptrs := len(t.poolF) + len(t.poolD)
	i32 := len(t.files) + len(t.dirs) + len(t.alias) + len(t.tabOff) + len(t.fileOff) + len(t.dirOff) + len(t.clientOff)
	return int64(ptrs+len(t.prob))*8 + int64(i32)*4
}

// ForEachTarget visits every inode the alias tables can return (files
// and directories, all tenants). The endurance plane uses it to keep
// its base-churn unlink victims disjoint from the working sets.
func (t *Tenants) ForEachTarget(fn func(*namespace.Inode)) {
	for _, k := range t.files {
		fn(t.poolF[k])
	}
	for _, k := range t.dirs {
		fn(t.poolD[k])
	}
}

// SetFileSkew rebuilds the popularity alias tables in place for a new
// Zipf exponent. The working sets themselves are unchanged — only the
// draw distribution over them. Runs at an act boundary; the Vose
// scratch allocation is boundary-time, not steady-state. Negative skew is a no-op, matching
// the act-layer "unchanged" convention.
func (t *Tenants) SetFileSkew(skew float64) {
	if skew < 0 || skew == t.cfg.FileSkew {
		return
	}
	t.cfg.FileSkew = skew
	t.buildAliasTables()
}

// buildAliasTables fills the table of every set size in use for the
// current skew.
func (t *Tenants) buildAliasTables() {
	for n, off := range t.tabOff {
		if off >= 0 {
			buildAlias(t.prob[off:int(off)+n], t.alias[off:int(off)+n], t.cfg.FileSkew)
		}
	}
}

// File draws a target from tenant i's working set by Zipf popularity:
// u1 selects the candidate column, u2 resolves the alias coin flip.
func (t *Tenants) File(i int, u1, u2 uint64) *namespace.Inode {
	set := t.files[t.fileOff[i]:t.fileOff[i+1]]
	return t.poolF[set[t.pick(len(set), u1, u2)]]
}

// Dir draws a directory from tenant i's working set.
func (t *Tenants) Dir(i int, u1, u2 uint64) *namespace.Inode {
	set := t.dirs[t.dirOff[i]:t.dirOff[i+1]]
	return t.poolD[set[t.pick(len(set), u1, u2)]]
}

// pick draws an index into a working set of n entries from the shared
// table for that size.
func (t *Tenants) pick(n int, u1, u2 uint64) int {
	a := int(t.tabOff[n])
	return aliasPick(t.prob[a:a+n], t.alias[a:a+n], u1, u2)
}

// aliasPick is the Vose draw: column u1 mod n, accept with probability
// prob, else take the alias. Two uniform words, no allocation.
func aliasPick(prob []float64, alias []int32, u1, u2 uint64) int {
	n := uint64(len(prob))
	i := int(u1 % n)
	if float64(u2>>11)/(1<<53) < prob[i] {
		return i
	}
	return int(alias[i])
}

// assignClients splits clients across tenants with weights
// (i+1)^-TenantSkew by largest remainder: every tenant gets at least
// one client, the rest follow the Zipf weights exactly up to rounding.
func (t *Tenants) assignClients(clients int) {
	n := t.cfg.Tenants
	weights := make([]float64, n)
	var total float64
	for i := range weights {
		weights[i] = zipfWeight(i, t.cfg.TenantSkew)
		total += weights[i]
	}
	counts := make([]int32, n)
	spare := clients - n // one guaranteed client per tenant
	assigned := 0
	rems := make([]float64, n)
	for i := range counts {
		exact := float64(spare) * weights[i] / total
		counts[i] = int32(exact)
		assigned += int(exact)
		rems[i] = exact - float64(int(exact))
	}
	// Hand the rounding leftover to the largest remainders, ties to the
	// lower index, so the split is deterministic.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rems[order[a]] > rems[order[b]] })
	for k := 0; k < spare-assigned; k++ {
		counts[order[k%n]]++
	}
	t.clientOff = make([]int32, n+1)
	for i, c := range counts {
		t.clientOff[i+1] = t.clientOff[i] + c + 1
	}
}

func zipfWeight(rank int, skew float64) float64 {
	if skew == 0 {
		return 1
	}
	return math.Pow(float64(rank+1), -skew)
}

// buildWorkingSets samples each tenant's working set from one home
// subtree (tenants round-robin over homes) with a per-tenant seeded
// stream, then builds the alias tables for Zipf popularity.
func (t *Tenants) buildWorkingSets(homes []*namespace.Inode, seed int64) {
	n := t.NumTenants()
	// Each home's subtree is collected once, however many tenants share
	// it: home h's files are poolF[offF[h]:offF[h+1]] (ditto dirs).
	nh := min(n, len(homes))
	var poolF, poolD []*namespace.Inode
	offF, offD := make([]int, nh+1), make([]int, nh+1)
	for h := 0; h < nh; h++ {
		poolF, poolD = collectSubtree(homes[h], poolF, poolD)
		if len(poolF) == offF[h] {
			poolF = append(poolF, homes[h])
		}
		if len(poolD) == offD[h] {
			poolD = append(poolD, homes[h])
		}
		offF[h+1], offD[h+1] = len(poolF), len(poolD)
	}
	t.fileOff = make([]int32, n+1)
	t.dirOff = make([]int32, n+1)
	t.tabOff = make([]int32, t.cfg.WorkingSet+1)
	for size := range t.tabOff {
		t.tabOff[size] = -1
	}
	total := 0
	for i := 0; i < n; i++ {
		h := i % nh
		nf := min(t.cfg.WorkingSet, offF[h+1]-offF[h])
		nd := min(max(1, t.cfg.WorkingSet/8), offD[h+1]-offD[h])
		t.fileOff[i+1] = t.fileOff[i] + int32(nf)
		t.dirOff[i+1] = t.dirOff[i] + int32(nd)
		for _, size := range [2]int{nf, nd} {
			if t.tabOff[size] < 0 {
				t.tabOff[size] = int32(total)
				total += size
			}
		}
	}
	t.prob, t.alias = make([]float64, total), make([]int32, total)
	t.buildAliasTables()

	t.files = make([]int32, t.fileOff[n])
	t.dirs = make([]int32, t.dirOff[n])
	var scratch []int32
	rng := sim.NewRNG(0)
	for i := 0; i < n; i++ {
		rng.Restream(seed, "tenant-"+strconv.Itoa(i))
		h := i % nh
		// sampleK shuffles its pool, so it gets the pristine index range.
		scratch = indexRange(scratch, offF[h], offF[h+1])
		sampleK(scratch, t.files[t.fileOff[i]:t.fileOff[i+1]], rng)
		scratch = indexRange(scratch, offD[h], offD[h+1])
		sampleK(scratch, t.dirs[t.dirOff[i]:t.dirOff[i+1]], rng)
	}
	t.poolF = keepReferenced(poolF, t.files)
	t.poolD = keepReferenced(poolD, t.dirs)
}

// keepReferenced returns the entries of pool that idx refers to, in
// first-reference order, and renumbers idx to match: a home subtree
// larger than its tenants' working sets keeps only what they sample.
func keepReferenced(pool []*namespace.Inode, idx []int32) []*namespace.Inode {
	renum := make([]int32, len(pool)) // new index + 1; 0: not kept
	var n int32
	for j, k := range idx {
		if renum[k] == 0 {
			n++
			renum[k] = n
		}
		idx[j] = renum[k] - 1
	}
	kept := make([]*namespace.Inode, n)
	for k, r := range renum {
		if r != 0 {
			kept[r-1] = pool[k]
		}
	}
	return kept
}

// indexRange refills buf with lo, lo+1, …, hi-1.
func indexRange(buf []int32, lo, hi int) []int32 {
	buf = buf[:0]
	for k := lo; k < hi; k++ {
		buf = append(buf, int32(k))
	}
	return buf
}

// collectSubtree gathers the files and directories beneath root
// (inclusive for directories) in deterministic DFS order.
func collectSubtree(root *namespace.Inode, files, dirs []*namespace.Inode) ([]*namespace.Inode, []*namespace.Inode) {
	if !root.IsDir() {
		return append(files, root), dirs
	}
	dirs = append(dirs, root)
	for _, c := range root.Children() {
		files, dirs = collectSubtree(c, files, dirs)
	}
	return files, dirs
}

// sampleK fills out with len(out) <= len(pool) distinct entries by
// partial Fisher–Yates, shuffling pool in place. The output order is the
// popularity ranking (index 0 = hottest).
func sampleK(pool, out []int32, rng *sim.RNG) {
	for i := range out {
		j := i + rng.Pick(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		out[i] = pool[i]
	}
}

// buildAlias constructs one Vose alias table in place for Zipf weights
// (rank+1)^-skew, deterministic small/large pairing by ascending index.
func buildAlias(prob []float64, alias []int32, skew float64) {
	n := len(prob)
	if n == 0 {
		return
	}
	var total float64
	for i := range prob {
		prob[i] = zipfWeight(i, skew)
		total += prob[i]
	}
	scale := float64(n) / total
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := range prob {
		prob[i] *= scale
		alias[i] = int32(i)
		if prob[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		alias[s] = l
		prob[l] -= 1 - prob[s]
		if prob[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
	}
	for _, i := range small {
		prob[i] = 1
	}
}
