package dirstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dynmds/internal/namespace"
)

// Snapshot returns an O(1) copy-on-write snapshot: it shares all nodes
// with t; later mutations of either tree copy nodes rather than
// modifying shared state. Both trees take fresh tokens, so every node
// reachable now is owned by neither.
func (t *Tree) Snapshot() *Tree {
	t.cow = new(cowToken)
	return &Tree{root: t.root, order: t.order, size: t.size, cow: new(cowToken)}
}

func rec(name string) Record {
	return Record{Name: name, Ino: namespace.InodeID(len(name)), Kind: namespace.File}
}

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// Nodes counts reachable nodes (the object's on-disk footprint in
// B-tree blocks).
func (t *Tree) Nodes() int {
	var count func(n *node) int
	count = func(n *node) int {
		if n.leaf {
			return 1
		}
		total := 1
		for _, c := range n.children {
			total += count(c)
		}
		return total
	}
	return count(t.root)
}

func TestInsertGetDelete(t *testing.T) {
	tr := New(4)
	names := []string{"m", "a", "z", "k", "b", "q", "x", "c", "d", "e"}
	for i, n := range names {
		w, err := tr.Insert(rec(n))
		if err != nil {
			t.Fatal(err)
		}
		if w < 1 {
			t.Fatalf("insert wrote %d nodes", w)
		}
		if tr.size != i+1 {
			t.Fatalf("len = %d, want %d", tr.size, i+1)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range names {
		r, ok := tr.Get(n)
		if !ok || r.Name != n {
			t.Fatalf("Get(%q) = %v %v", n, r, ok)
		}
	}
	if _, ok := tr.Get("nope"); ok {
		t.Fatal("found absent key")
	}
	for i, n := range names {
		w, ok := tr.Delete(n)
		if !ok || w < 1 {
			t.Fatalf("Delete(%q) = %d %v", n, w, ok)
		}
		if tr.size != len(names)-i-1 {
			t.Fatalf("len after delete = %d", tr.size)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after deleting %q: %v", n, err)
		}
	}
	if _, ok := tr.Delete("m"); ok {
		t.Fatal("deleted absent key")
	}
}

func TestInsertReplaces(t *testing.T) {
	tr := New(4)
	if _, err := tr.Insert(Record{Name: "a", Size: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Insert(Record{Name: "a", Size: 2}); err != nil {
		t.Fatal(err)
	}
	if tr.size != 1 {
		t.Fatalf("len = %d after replace", tr.size)
	}
	r, _ := tr.Get("a")
	if r.Size != 2 {
		t.Fatalf("replace lost update: %+v", r)
	}
}

func TestEmptyNameRejected(t *testing.T) {
	tr := New(4)
	if _, err := tr.Insert(Record{}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestRangeOrdered(t *testing.T) {
	tr := New(5)
	var names []string
	for i := 0; i < 300; i++ {
		n := fmt.Sprintf("f%05d", (i*7919)%100000)
		names = append(names, n)
		if _, err := tr.Insert(rec(n)); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(names)
	var got []string
	tr.Range(func(r Record) bool {
		got = append(got, r.Name)
		return true
	})
	if len(got) != len(names) {
		t.Fatalf("ranged %d, want %d", len(got), len(names))
	}
	for i := range names {
		if got[i] != names[i] {
			t.Fatalf("order broken at %d: %q vs %q", i, got[i], names[i])
		}
	}
	// Early stop.
	count := 0
	tr.Range(func(r Record) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestIncrementalWriteCostIsLogarithmic(t *testing.T) {
	tr := New(8)
	for i := 0; i < 10000; i++ {
		if _, err := tr.Insert(rec(fmt.Sprintf("e%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h := tr.Height()
	// One more insert rewrites roughly one path: height + a possible
	// split chain, never the whole object.
	w, err := tr.Insert(rec("zzz-new"))
	if err != nil {
		t.Fatal(err)
	}
	if w > 2*h+2 {
		t.Fatalf("insert wrote %d nodes for height %d", w, h)
	}
	if n := tr.Nodes(); w >= n/10 {
		t.Fatalf("incremental update rewrote %d of %d nodes", w, n)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tr := New(4)
	for i := 0; i < 100; i++ {
		if _, err := tr.Insert(rec(fmt.Sprintf("s%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Snapshot()
	if snap.size != tr.size {
		t.Fatal("snapshot size mismatch")
	}
	// Mutate the live tree: inserts, replaces, deletes.
	for i := 0; i < 50; i++ {
		if _, ok := tr.Delete(fmt.Sprintf("s%03d", i)); !ok {
			t.Fatal("delete failed")
		}
	}
	if _, err := tr.Insert(Record{Name: "s099", Size: 42}); err != nil {
		t.Fatal(err)
	}
	// The snapshot still sees the old state.
	if snap.size != 100 {
		t.Fatalf("snapshot len changed: %d", snap.size)
	}
	for i := 0; i < 100; i++ {
		r, ok := snap.Get(fmt.Sprintf("s%03d", i))
		if !ok {
			t.Fatalf("snapshot lost s%03d", i)
		}
		if r.Name == "s099" && r.Size != 0 {
			t.Fatal("snapshot saw post-snapshot update")
		}
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// And the live tree sees the new state.
	if _, ok := tr.Get("s000"); ok {
		t.Fatal("live tree kept deleted key")
	}
	if r, _ := tr.Get("s099"); r.Size != 42 {
		t.Fatal("live tree lost update")
	}
}

func TestOrderClamped(t *testing.T) {
	tr := New(1)
	if tr.order != MinOrder {
		t.Fatalf("order = %d", tr.order)
	}
	if tr.Height() != 1 || tr.Nodes() != 1 || tr.size != 0 {
		t.Fatal("empty tree shape wrong")
	}
}

// Property: against a map reference model, random workloads agree and
// invariants hold at every step.
func TestBTreeMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New(4 + r.Intn(6))
		ref := map[string]Record{}
		for op := 0; op < 800; op++ {
			name := fmt.Sprintf("k%03d", r.Intn(200))
			switch r.Intn(3) {
			case 0, 1:
				rec := Record{Name: name, Size: int64(op)}
				if _, err := tr.Insert(rec); err != nil {
					return false
				}
				ref[name] = rec
			case 2:
				_, ok := tr.Delete(name)
				_, refOK := ref[name]
				if ok != refOK {
					return false
				}
				delete(ref, name)
			}
			if tr.size != len(ref) {
				return false
			}
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		for name, want := range ref {
			got, ok := tr.Get(name)
			if !ok || got.Size != want.Size {
				return false
			}
		}
		count := 0
		tr.Range(func(Record) bool { count++; return true })
		return count == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: COW means a snapshot taken at any point is never affected
// by later mutations.
func TestSnapshotProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New(4)
		for i := 0; i < 100; i++ {
			if _, err := tr.Insert(rec(fmt.Sprintf("p%03d", r.Intn(300)))); err != nil {
				return false
			}
		}
		snap := tr.Snapshot()
		before := map[string]bool{}
		snap.Range(func(rc Record) bool { before[rc.Name] = true; return true })
		for i := 0; i < 100; i++ {
			name := fmt.Sprintf("p%03d", r.Intn(300))
			if r.Intn(2) == 0 {
				_, _ = tr.Delete(name)
			} else {
				_, _ = tr.Insert(rec(name))
			}
		}
		after := map[string]bool{}
		snap.Range(func(rc Record) bool { after[rc.Name] = true; return true })
		if len(before) != len(after) {
			return false
		}
		for k := range before {
			if !after[k] {
				return false
			}
		}
		return snap.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	tr := New(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Insert(rec(fmt.Sprintf("b%07d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeGet(b *testing.B) {
	tr := New(16)
	for i := 0; i < 10000; i++ {
		if _, err := tr.Insert(rec(fmt.Sprintf("b%07d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(fmt.Sprintf("b%07d", i%10000))
	}
}
