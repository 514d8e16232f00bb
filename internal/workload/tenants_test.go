package workload

import (
	"slices"
	"sort"
	"strconv"
	"testing"

	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

// tenantTree builds a small namespace with h home directories, each
// holding a few files and one subdirectory.
func tenantTree(t *testing.T, h int) (*namespace.Tree, []*namespace.Inode) {
	t.Helper()
	tr := namespace.NewTree()
	homeRoot, err := tr.Mkdir(tr.Root, "home")
	if err != nil {
		t.Fatal(err)
	}
	homes := make([]*namespace.Inode, h)
	for i := 0; i < h; i++ {
		u, err := tr.Mkdir(homeRoot, "u"+string(rune('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		homes[i] = u
		sub, err := tr.Mkdir(u, "proj")
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 6; j++ {
			name := "f" + string(rune('0'+j))
			if _, err := tr.Create(u, name); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Create(sub, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr, homes
}

func TestTenantsClientSplit(t *testing.T) {
	_, homes := tenantTree(t, 4)
	cfg := TenantConfig{Tenants: 10, TenantSkew: 1.0, WorkingSet: 8}
	tn := NewTenants(cfg, 1000, homes, 42)
	if tn.NumTenants() != 10 {
		t.Fatalf("tenants = %d", tn.NumTenants())
	}
	total := 0
	for i := 0; i < 10; i++ {
		c := tn.TenantClients(i)
		if c < 1 {
			t.Fatalf("tenant %d has %d clients", i, c)
		}
		total += c
	}
	if total != 1000 {
		t.Fatalf("client counts sum to %d", total)
	}
	// Zipf sizes: tenant 0 largest, monotone non-increasing overall
	// shape (largest remainder can wobble by one, so compare 0 vs last).
	if tn.TenantClients(0) <= tn.TenantClients(9) {
		t.Fatalf("skew missing: t0=%d t9=%d", tn.TenantClients(0), tn.TenantClients(9))
	}
	// Roughly Zipf: tenant 0's weight is 1/H(10) ≈ 0.34 of the mass.
	if c0 := tn.TenantClients(0); c0 < 250 || c0 > 450 {
		t.Fatalf("tenant 0 clients = %d, want ≈ 340", c0)
	}
	// ClientTenant is consistent with the contiguous ranges.
	seen := make([]int, 10)
	for c := 0; c < 1000; c++ {
		seen[tn.ClientTenant(c)]++
	}
	for i := 0; i < 10; i++ {
		if seen[i] != tn.TenantClients(i) {
			t.Fatalf("tenant %d: mapped %d, counted %d", i, seen[i], tn.TenantClients(i))
		}
	}
}

func TestTenantsUniformSplit(t *testing.T) {
	_, homes := tenantTree(t, 2)
	tn := NewTenants(TenantConfig{Tenants: 7, WorkingSet: 4}, 700, homes, 1)
	for i := 0; i < 7; i++ {
		if c := tn.TenantClients(i); c != 100 {
			t.Fatalf("tenant %d clients = %d, want 100", i, c)
		}
	}
}

func TestTenantsSeedStable(t *testing.T) {
	_, homes := tenantTree(t, 4)
	cfg := TenantConfig{Tenants: 6, TenantSkew: 0.8, FileSkew: 1.1, WorkingSet: 8}
	a := NewTenants(cfg, 300, homes, 7)
	b := NewTenants(cfg, 300, homes, 7)
	c := NewTenants(cfg, 300, homes, 8)
	for i := 0; i < 6; i++ {
		if a.TenantClients(i) != b.TenantClients(i) {
			t.Fatalf("tenant %d size differs across identical builds", i)
		}
	}
	same, diff := true, false
	for i := 0; i < 6; i++ {
		lo, hi := int(a.fileOff[i]), int(a.fileOff[i+1])
		for j := lo; j < hi; j++ {
			if a.files[j] != b.files[j] {
				same = false
			}
			if a.files[j] != c.files[j] {
				diff = true
			}
		}
	}
	if !same {
		t.Fatal("identical seeds produced different working sets")
	}
	if !diff {
		t.Fatal("different seeds produced identical working sets")
	}
	// Draws are pure functions of (tenant, u1, u2).
	if a.File(2, 123, 456) != b.File(2, 123, 456) {
		t.Fatal("draw not reproducible")
	}
}

func TestTenantsDrawDistribution(t *testing.T) {
	_, homes := tenantTree(t, 1)
	tn := NewTenants(TenantConfig{Tenants: 1, FileSkew: 1.2, WorkingSet: 8}, 16, homes, 3)
	ws := tn.WorkingSetSize(0)
	if ws < 2 {
		t.Fatalf("working set = %d", ws)
	}
	hot := tn.files[0]
	counts := map[*namespace.Inode]int{}
	// Deterministic pseudo-uniform words via splitmix-ish mixing.
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	n := 20000
	for i := 0; i < n; i++ {
		counts[tn.File(0, next(), next())]++
	}
	// With skew 1.2 over 8 ranks, rank 0 holds ≈45% of the mass; it must
	// clearly dominate a uniform share and every rank must be drawn.
	if counts[hot] < n/4 {
		t.Fatalf("hottest file drawn %d/%d, want > %d", counts[hot], n, n/4)
	}
	if len(counts) != ws {
		t.Fatalf("only %d of %d working-set entries ever drawn", len(counts), ws)
	}
	for f, c := range counts {
		if f == hot {
			continue
		}
		if c >= counts[hot] {
			t.Fatalf("rank-0 file not the mode: %d vs %d", counts[hot], c)
		}
	}
	// Dir draws return directories.
	for i := 0; i < 100; i++ {
		if d := tn.Dir(0, next(), next()); !d.IsDir() {
			t.Fatal("Dir returned a non-directory")
		}
	}
}

func TestTenantsWorkingSetBounded(t *testing.T) {
	_, homes := tenantTree(t, 2)
	tn := NewTenants(TenantConfig{Tenants: 3, WorkingSet: 5}, 30, homes, 9)
	for i := 0; i < 3; i++ {
		ws := tn.WorkingSetSize(i)
		if ws < 1 || ws > 5 {
			t.Fatalf("tenant %d working set = %d, want 1..5", i, ws)
		}
		// Entries are distinct.
		seen := map[*namespace.Inode]bool{}
		for j := int(tn.fileOff[i]); j < int(tn.fileOff[i+1]); j++ {
			if seen[tn.files[j]] {
				t.Fatalf("tenant %d working set has duplicates", i)
			}
			seen[tn.files[j]] = true
		}
	}
}

func TestTenantsDrawAllocFree(t *testing.T) {
	_, homes := tenantTree(t, 1)
	tn := NewTenants(TenantConfig{Tenants: 2, FileSkew: 0.9, WorkingSet: 8}, 64, homes, 5)
	var sink *namespace.Inode
	allocs := testing.AllocsPerRun(200, func() {
		sink = tn.File(0, 12345, 67890)
		sink = tn.Dir(1, 111, 222)
	})
	if allocs != 0 {
		t.Fatalf("draw allocates: %v allocs/op", allocs)
	}
	_ = sink
}

// unevenHomes builds h home directories of different sizes (home i holds
// 3i+1 files and i subdirectories), so tenants' working sets differ in
// size and several tenants share each alias table.
func unevenHomes(t *testing.T, h int) []*namespace.Inode {
	t.Helper()
	tr := namespace.NewTree()
	homes := make([]*namespace.Inode, h)
	for i := range homes {
		u, err := tr.Mkdir(tr.Root, "u"+strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		homes[i] = u
		for j := 0; j < 3*i+1; j++ {
			dir := u
			if j < i {
				if dir, err = tr.Mkdir(u, "d"+strconv.Itoa(j)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tr.Create(dir, "f"+strconv.Itoa(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return homes
}

// TestSharedAliasTablesMatchPerTenant rebuilds what the per-tenant
// construction produced — a fresh subtree walk, sample and Vose table
// for every tenant, files and directories apart — and checks that the
// shared pools and per-size tables give the same working sets and the
// same draws, before and after a skew change.
func TestSharedAliasTablesMatchPerTenant(t *testing.T) {
	homes := unevenHomes(t, 7)
	const tenants, seed = 40, 9
	cfg := TenantConfig{Tenants: tenants, TenantSkew: 1, FileSkew: 0.8, WorkingSet: 16}
	tn := NewTenants(cfg, 5000, homes, seed)
	// Seven home sizes, so at most 7 file and 7 directory set sizes.
	if want := 14 * cfg.WorkingSet; len(tn.prob) > want {
		t.Fatalf("alias tables hold %d entries for %d tenants, want <= %d: sizes are not shared", len(tn.prob), tenants, want)
	}

	type ref struct {
		files, dirs    []*namespace.Inode
		fProb, dProb   []float64
		fAlias, dAlias []int32
	}
	refs := make([]ref, tenants)
	sample := func(pool []*namespace.Inode, k int, rng *sim.RNG) []*namespace.Inode {
		out := make([]*namespace.Inode, min(k, len(pool)))
		sampleK(pool, out, rng)
		return out
	}
	for i := range refs {
		rng := sim.NewStream(seed, "tenant-"+strconv.Itoa(i))
		poolF, poolD := collectSubtree(homes[i%len(homes)], nil, nil)
		r := &refs[i]
		r.files = sample(poolF, cfg.WorkingSet, rng)
		r.dirs = sample(poolD, cfg.WorkingSet/8, rng)
		if got := tn.files[tn.fileOff[i]:tn.fileOff[i+1]]; !slices.Equal(got, r.files) {
			t.Fatalf("tenant %d: file working set differs from a per-tenant walk and sample", i)
		}
		if got := tn.dirs[tn.dirOff[i]:tn.dirOff[i+1]]; !slices.Equal(got, r.dirs) {
			t.Fatalf("tenant %d: directory working set differs from a per-tenant walk and sample", i)
		}
		r.fProb, r.fAlias = make([]float64, len(r.files)), make([]int32, len(r.files))
		r.dProb, r.dAlias = make([]float64, len(r.dirs)), make([]int32, len(r.dirs))
	}
	check := func(skew float64) {
		for i := range refs {
			r := &refs[i]
			buildAlias(r.fProb, r.fAlias, skew)
			buildAlias(r.dProb, r.dAlias, skew)
		}
		rng := sim.NewStream(seed, "draws")
		for n := 0; n < 10_000; n++ {
			i, u1, u2 := rng.Pick(tenants), rng.Uint64(), rng.Uint64()
			r := &refs[i]
			if want := r.files[aliasPick(r.fProb, r.fAlias, u1, u2)]; tn.File(i, u1, u2) != want {
				t.Fatalf("skew %v: File(%d,%d,%d) differs from the per-tenant table", skew, i, u1, u2)
			}
			if want := r.dirs[aliasPick(r.dProb, r.dAlias, u1, u2)]; tn.Dir(i, u1, u2) != want {
				t.Fatalf("skew %v: Dir(%d,%d,%d) differs from the per-tenant table", skew, i, u1, u2)
			}
		}
	}
	check(cfg.FileSkew)
	tn.SetFileSkew(1.7)
	check(1.7)
}

// TestClientTenantMatchesSortSearch checks the hand-rolled binary search
// and the ascending cursor against sort.Search at both edges of every
// tenant's client range.
func TestClientTenantMatchesSortSearch(t *testing.T) {
	_, homes := tenantTree(t, 4)
	const clients = 5000
	tn := NewTenants(TenantConfig{Tenants: 37, TenantSkew: 1.2, WorkingSet: 4}, clients, homes, 3)
	want := func(c int) int {
		return sort.Search(tn.NumTenants(), func(i int) bool { return int(tn.clientOff[i+1]) > c })
	}
	cursor := 0
	for i := 0; i < tn.NumTenants(); i++ {
		for _, c := range []int{int(tn.clientOff[i]), int(tn.clientOff[i+1]) - 1} {
			if got := tn.ClientTenant(c); got != want(c) || got != i {
				t.Fatalf("ClientTenant(%d) = %d, sort.Search %d, range owner %d", c, got, want(c), i)
			}
			if cursor = tn.TenantFrom(cursor, c); cursor != i {
				t.Fatalf("TenantFrom(.., %d) = %d, want %d", c, cursor, i)
			}
		}
	}
	if got := tn.ClientTenant(clients); got != want(clients) {
		t.Fatalf("ClientTenant past the last client = %d, sort.Search %d", got, want(clients))
	}
}
