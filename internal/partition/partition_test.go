package partition

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"dynmds/internal/fsgen"
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
	"dynmds/internal/snap"
)

func smallTree(t *testing.T) (*namespace.Tree, *namespace.Inode, *namespace.Inode) {
	t.Helper()
	empty, _ := namespace.NewBuilder().Freeze()
	tr := namespace.NewOverlay(empty)
	usr, err := tr.Mkdir(tr.Root, "usr")
	if err != nil {
		t.Fatal(err)
	}
	local, err := tr.Mkdir(usr, "local")
	if err != nil {
		t.Fatal(err)
	}
	return tr, usr, local
}

func TestSubtreeTableNestedDelegation(t *testing.T) {
	tr, usr, local := smallTree(t)
	f, _ := tr.Create(local, "f")
	g, _ := tr.Create(usr, "g")

	tab := NewSubtreeTable(4)
	if tab.Authority(f) != 0 {
		t.Fatal("default authority not 0")
	}
	if err := tab.Delegate(usr, 1); err != nil {
		t.Fatal(err)
	}
	if err := tab.Delegate(local, 2); err != nil {
		t.Fatal(err)
	}
	// /usr on 1, /usr/local re-delegated to 2 (nested, §4.1).
	if got := tab.Authority(g); got != 1 {
		t.Fatalf("authority(/usr/g) = %d, want 1", got)
	}
	if got := tab.Authority(f); got != 2 {
		t.Fatalf("authority(/usr/local/f) = %d, want 2", got)
	}
	if got := tab.Authority(usr); got != 1 {
		t.Fatalf("authority(/usr) = %d, want 1", got)
	}
	if got := tab.Authority(tr.Root); got != 0 {
		t.Fatalf("authority(/) = %d, want 0", got)
	}
	if tab.NumDelegations() != 2 {
		t.Fatalf("delegations = %d, want 2", tab.NumDelegations())
	}
}

func TestSubtreeTableMemoInvalidation(t *testing.T) {
	tr, usr, local := smallTree(t)
	f, _ := tr.Create(local, "f")
	tab := NewSubtreeTable(4)
	_ = tab.Delegate(usr, 1)
	if tab.Authority(f) != 1 {
		t.Fatal("pre-move authority wrong")
	}
	// Re-delegating must invalidate the memoized authority.
	_ = tab.Delegate(usr, 3)
	if got := tab.Authority(f); got != 3 {
		t.Fatalf("authority after re-delegation = %d, want 3", got)
	}
}

func TestSubtreeTableErrors(t *testing.T) {
	tr, usr, _ := smallTree(t)
	f, _ := tr.Create(usr, "f")
	tab := NewSubtreeTable(2)
	if err := tab.Delegate(usr, 5); err == nil {
		t.Fatal("out-of-range mds accepted")
	}
	if err := tab.Delegate(f, 1); err == nil {
		t.Fatal("file delegation accepted")
	}
}

func TestRootsOfSortedAndTracked(t *testing.T) {
	tr, usr, local := smallTree(t)
	tab := NewSubtreeTable(2)
	_ = tab.Delegate(local, 1)
	_ = tab.Delegate(usr, 1)
	roots := tab.RootsOf(1)
	if len(roots) != 2 || roots[0].ID > roots[1].ID {
		t.Fatalf("roots = %v", roots)
	}
	_ = tab.Delegate(usr, 0)
	if len(tab.RootsOf(1)) != 1 || len(tab.RootsOf(0)) != 1 {
		t.Fatal("roots wrong after reassignment")
	}
	_ = tr
}

func TestInitialPartitionCoversAndBalances(t *testing.T) {
	fz, err := fsgen.GenerateFrozen(fsgen.Default())
	if err != nil {
		t.Fatal(err)
	}
	snap := fz.Thaw()
	const n = 8
	tab := NewSubtreeTable(n)
	InitialPartition(tab, snap.Tree, 2)
	counts := make([]int, n)
	snap.Tree.Walk(func(ino *namespace.Inode) bool {
		counts[tab.Authority(ino)]++
		return true
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != snap.Tree.Len() {
		t.Fatalf("covered %d of %d inodes", total, snap.Tree.Len())
	}
	// Hash-seeded partition of ~100 homes over 8 nodes: every node
	// should get a meaningful share (no zero, no 60% monopoly).
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("mds %d received nothing: %v", i, counts)
		}
		if float64(c) > 0.6*float64(total) {
			t.Fatalf("mds %d monopolises the partition: %v", i, counts)
		}
	}
}

func TestFileHashProperties(t *testing.T) {
	tr, usr, local := smallTree(t)
	f, _ := tr.Create(local, "f")
	fh := FileHash{N: 7}
	if fh.DirGranular() || !fh.NeedsPathTraversal() || !fh.ClientComputable() {
		t.Fatal("FileHash flags wrong")
	}
	a := fh.Authority(f)
	if a < 0 || a >= 7 {
		t.Fatalf("authority out of range: %d", a)
	}
	// Renaming an ancestor changes the path and so (almost surely over
	// many names) the authority mapping; verify the hash changes.
	h1 := PathHash(f)
	if err := tr.Rename(local, tr.Root, "relocated"); err != nil {
		t.Fatal(err)
	}
	h2 := PathHash(f)
	if h1 == h2 {
		t.Fatal("path hash unchanged by ancestor rename")
	}
	_ = usr
}

func TestFileHashUniformity(t *testing.T) {
	fz, err := fsgen.GenerateFrozen(fsgen.Default())
	if err != nil {
		t.Fatal(err)
	}
	snap := fz.Thaw()
	const n = 10
	fh := FileHash{N: n}
	counts := make([]int, n)
	snap.Tree.Walk(func(ino *namespace.Inode) bool {
		counts[fh.Authority(ino)]++
		return true
	})
	mean := float64(snap.Tree.Len()) / n
	for i, c := range counts {
		if float64(c) < 0.7*mean || float64(c) > 1.3*mean {
			t.Fatalf("mds %d share %d far from mean %.0f: %v", i, c, mean, counts)
		}
	}
}

func TestDirHashGroupsDirectoryContents(t *testing.T) {
	tr, _, local := smallTree(t)
	f1, _ := tr.Create(local, "f1")
	f2, _ := tr.Create(local, "f2")
	dh := DirHash{N: 5}
	if !dh.DirGranular() || !dh.NeedsPathTraversal() || !dh.ClientComputable() {
		t.Fatal("DirHash flags wrong")
	}
	if dh.Authority(f1) != dh.Authority(f2) {
		t.Fatal("siblings scattered by DirHash")
	}
	if dh.Authority(f1) != dh.Authority(local) {
		t.Fatal("directory not grouped with its contents")
	}
	if dh.Authority(tr.Root) < 0 || dh.Authority(tr.Root) >= 5 {
		t.Fatal("root authority out of range")
	}
}

func TestLazyHybridStalenessLifecycle(t *testing.T) {
	tr, usr, local := smallTree(t)
	f, _ := tr.Create(local, "f")
	lh := NewLazyHybrid(4)
	if lh.DirGranular() || lh.NeedsPathTraversal() || !lh.ClientComputable() {
		t.Fatal("LH flags wrong")
	}
	if lh.Stale(f) {
		t.Fatal("fresh file reported stale")
	}
	affected := lh.NoteDirUpdate(usr)
	if affected != usr.SubtreeInodes()-1 {
		t.Fatalf("affected = %d, want %d", affected, usr.SubtreeInodes()-1)
	}
	if lh.Debt != affected {
		t.Fatalf("debt = %d", lh.Debt)
	}
	if !lh.Stale(f) {
		t.Fatal("file under updated dir not stale")
	}
	lh.Apply(f)
	if lh.Stale(f) {
		t.Fatal("file stale after apply")
	}
	if lh.Debt != affected-1 {
		t.Fatalf("debt after apply = %d", lh.Debt)
	}
	// File updates don't create propagation debt.
	if lh.NoteDirUpdate(f) != 0 {
		t.Fatal("file update created debt")
	}
	// Nested update: deeper dir change re-stales.
	lh.NoteDirUpdate(local)
	if !lh.Stale(f) {
		t.Fatal("not stale after nested dir update")
	}
}

func TestNameHashSpreads(t *testing.T) {
	const n = 8
	counts := make([]int, n)
	for i := 0; i < 4000; i++ {
		counts[NameHash(42, fmt.Sprintf("file%d", i))%n]++
	}
	// Weak sanity: no bucket empty.
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("bucket %d empty", i)
		}
	}
}

// Property: Authority is always in range and stable between partition
// changes for arbitrary tree shapes.
func TestAuthorityRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := fsgen.Default()
		cfg.Users = 5
		cfg.Seed = seed
		fz, err := fsgen.GenerateFrozen(cfg)
		if err != nil {
			return false
		}
		snap := fz.Thaw()
		tab := NewSubtreeTable(3)
		InitialPartition(tab, snap.Tree, 2)
		ok := true
		snap.Tree.Walk(func(ino *namespace.Inode) bool {
			a := tab.Authority(ino)
			if a < 0 || a >= 3 || a != tab.Authority(ino) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestTagsAndPopularity(t *testing.T) {
	tr, _, local := smallTree(t)
	f, _ := tr.Create(local, "f")
	if TagsOf(f) != TagsOf(f) {
		t.Fatal("TagsOf not stable")
	}
	if TagsOf(f).Has(namespace.PopTouched) {
		t.Fatal("counter touched before its first bump")
	}
	p := Popularity(f)
	p.Add(0, sim.Second, 5)
	if Popularity(f) != p || !TagsOf(f).Has(namespace.PopTouched) {
		t.Fatal("Popularity not stable")
	}
	if got := p.Value(sim.Second, sim.Second); got < 2.4 || got > 2.6 {
		t.Fatalf("decayed popularity = %v", got)
	}
}

func TestStrategyNamesAndAuthorityForName(t *testing.T) {
	tr, usr, local := smallTree(t)
	_ = usr
	fh := FileHash{N: 4}
	dh := DirHash{N: 4}
	lh := NewLazyHybrid(4)
	ss := NewStaticSubtree(4, tr, 2)

	// AuthorityForName matches Authority once the entry exists.
	f, err := tr.Create(local, "newfile")
	if err != nil {
		t.Fatal(err)
	}
	if fh.AuthorityForName(local, "newfile") != fh.Authority(f) {
		t.Fatal("FileHash AuthorityForName inconsistent")
	}
	if lh.AuthorityForName(local, "newfile") != lh.Authority(f) {
		t.Fatal("LH AuthorityForName inconsistent")
	}
	if dh.AuthorityForName(local, "newfile") != dh.Authority(f) {
		t.Fatal("DirHash AuthorityForName inconsistent")
	}
	if ss.AuthorityForName(local, "x") != ss.Authority(local) {
		t.Fatal("subtree AuthorityForName inconsistent")
	}
	if !ss.DirGranular() || !ss.NeedsPathTraversal() || ss.ClientComputable() {
		t.Fatal("static subtree flags wrong")
	}
	if lh.Authority(f) < 0 || lh.Authority(f) >= 4 {
		t.Fatal("LH authority out of range")
	}
}

func TestReplicaSetBitmask(t *testing.T) {
	var tags Tags
	tags.SetReplica(3)
	tags.SetReplica(63)
	tags.SetReplica(64) // out of tracked range: ignored
	if !tags.HasReplica(3) || !tags.HasReplica(63) {
		t.Fatal("bits not set")
	}
	if tags.HasReplica(64) || tags.HasReplica(0) {
		t.Fatal("phantom bits")
	}
	tags.ClearReplica(3)
	if tags.HasReplica(3) {
		t.Fatal("bit not cleared")
	}
	tags.ClearReplica(64) // no-op, no panic
	if tags.ReplicaSet != 1<<63 {
		t.Fatalf("mask = %x", tags.ReplicaSet)
	}
}

func TestSubtreeTableAccessors(t *testing.T) {
	tr, usr, _ := smallTree(t)
	tab := NewSubtreeTable(5)
	if tab.N() != 5 {
		t.Fatalf("N = %d", tab.N())
	}
	e := tab.epoch
	_ = tab.Delegate(usr, 2)
	if tab.epoch == e {
		t.Fatal("epoch did not advance")
	}
	if got, ok := tab.Assigned(usr); !ok || got != 2 {
		t.Fatalf("Assigned = %d %v", got, ok)
	}
	if _, ok := tab.Assigned(tr.Root); ok {
		t.Fatal("root assigned without delegation")
	}
}

// TestSubtreeTableCheckConsistency: a healthy table passes; an
// assignment to an out-of-range node or of a file is caught.
func TestSubtreeTableCheckConsistency(t *testing.T) {
	fresh := func() (*SubtreeTable, *namespace.Tree, *namespace.Inode) {
		tr, usr, local := smallTree(t)
		tab := NewSubtreeTable(3)
		_ = tab.Delegate(tr.Root, 0)
		_ = tab.Delegate(usr, 1)
		_ = tab.Delegate(local, 2)
		return tab, tr, usr
	}

	tab, _, _ := fresh()
	if err := tab.CheckConsistency(); err != nil {
		t.Fatalf("healthy table flagged: %v", err)
	}

	tab, _, usr := fresh()
	tab.assign[usr] = 7 // out of range behind the API's back
	if err := tab.CheckConsistency(); err == nil {
		t.Fatal("out-of-range assignment not caught")
	}

	tab, tr, usr := fresh()
	f, _ := tr.Create(usr, "f")
	tab.assign[f] = 1 // a file delegated behind the API's back
	if err := tab.CheckConsistency(); err == nil {
		t.Fatal("file delegation not caught")
	}
}

// TestSubtreeTableSnapRefusesTwiceListedRoot: a checkpoint that lists
// one delegation root twice, under two nodes, is refused rather than
// restored with the first owner silently dropped.
func TestSubtreeTableSnapRefusesTwiceListedRoot(t *testing.T) {
	tr, usr, _ := smallTree(t)
	w := snap.NewWriter()
	snap.Encoder(w).Section("table", func(c *snap.Codec) {
		epoch, count := uint32(3), 2
		c.Same(3, "partition: table nodes")
		snap.U(c, &epoch)
		c.Len(&count)
		for mds := 1; mds <= 2; mds++ {
			tr.SnapRef(c, &usr, "partition: delegation")
			snap.Index(c, &mds, 3, "partition: delegation")
		}
	})
	r, err := snap.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	dec := snap.Decoder(r)
	dec.Section("table", func(c *snap.Codec) { NewSubtreeTable(3).Snap(c, tr) })
	if err := dec.Err(); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("restore: %v, want the second listing refused", err)
	}
}

// TestTagsBlockLayout pins the tag record's shape: pointer-free at every
// depth, no larger than 32 bytes, held in the inode after its last
// pointer field, and the inode no larger than 88 bytes — so touching an
// inode's tags never allocates and the collector never scans them. The
// memo's node index must name every node of the largest cluster
// cluster.Config.Validate admits.
func TestTagsBlockLayout(t *testing.T) {
	if size := unsafe.Sizeof(Tags{}); size > 32 {
		t.Fatalf("Tags is %d bytes, want <= 32", size)
	}
	if size := unsafe.Sizeof(namespace.Inode{}); size > 88 {
		t.Fatalf("namespace.Inode is %d bytes, want <= 88", size)
	}
	if got := uint64(1) << (8 * unsafe.Sizeof(Tags{}.Auth)); got != MaxNodes {
		t.Fatalf("the memo's node index names %d nodes, MaxNodes is %d", got, MaxNodes)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: the tag record must hold no pointer", path, ty.Kind())
		}
	}
	walk("Tags", reflect.TypeOf(Tags{}))

	ino := reflect.TypeOf(namespace.Inode{})
	tags, ok := ino.FieldByName("Tags")
	if !ok || tags.Type != reflect.TypeOf(Tags{}) {
		t.Fatal("namespace.Inode holds no Tags record by value")
	}
	for i := 0; i < ino.NumField(); i++ {
		f := ino.Field(i)
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			if f.Offset > tags.Offset {
				t.Errorf("namespace.Inode.%s (a %s) comes after the tag record", f.Name, f.Type.Kind())
			}
		}
	}
}

// TestDelegateRefusesEpochWrap: the memo epoch is 32 bits, and a table
// whose epoch wrapped would find every stale memo current again, so the
// delegation that would wrap it is refused and changes nothing.
func TestDelegateRefusesEpochWrap(t *testing.T) {
	_, usr, local := smallTree(t)
	tab := NewSubtreeTable(4)
	if err := tab.Delegate(usr, 1); err != nil {
		t.Fatal(err)
	}
	tab.epoch = math.MaxUint32 - 1
	if err := tab.Delegate(local, 2); err != nil {
		t.Fatalf("the last epoch is refused: %v", err)
	}
	if tab.Authority(local) != 2 {
		t.Fatal("delegation at the last epoch not applied")
	}
	err := tab.Delegate(local, 3)
	if err == nil || !strings.Contains(err.Error(), "would wrap") {
		t.Fatalf("Delegate at epoch %d: %v, want a refusal", tab.epoch, err)
	}
	if tab.epoch != math.MaxUint32 || tab.Authority(local) != 2 {
		t.Fatalf("a refused delegation moved the table: epoch %d, authority %d", tab.epoch, tab.Authority(local))
	}
}
