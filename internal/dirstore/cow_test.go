package dirstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dynmds/internal/namespace"
	"dynmds/internal/snap"
)

// encoded is a tree's exact serialized form: structure, keys, records.
func encoded(t *Tree) []byte {
	w := snap.NewWriter()
	snap.Encoder(w).Section("tree", t.Snap)
	return w.Bytes()
}

// churn applies n random inserts, replaces and deletes over a key space
// that keeps the tree splitting and merging.
func churn(t *testing.T, tr *Tree, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("k%04d", rng.Intn(3000))
		if rng.Intn(5) < 2 {
			tr.Delete(name)
		} else if _, err := tr.Insert(Record{Name: name, Ino: namespace.InodeID(i), Size: int64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%257 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotImmutableUnderInPlaceWrites is the safety property of the
// copy-on-write token: a snapshot taken at a random point is byte for
// byte what it was after 10k further mutations of the live tree, and the
// live tree is untouched by 10k mutations of a snapshot — across a chain
// of snapshots, so nodes are shared at several ages at once.
func TestSnapshotImmutableUnderInPlaceWrites(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := New(4 + rng.Intn(13))
		type frozen struct {
			tree *Tree
			want []byte
		}
		var snaps []frozen
		for round := 0; round < 4; round++ {
			churn(t, live, rng, 1+rng.Intn(4000))
			s := live.Snapshot()
			snaps = append(snaps, frozen{s, encoded(s)})
			churn(t, live, rng, 10_000)
			for i, f := range snaps {
				if !bytes.Equal(encoded(f.tree), f.want) {
					t.Fatalf("seed %d round %d: snapshot %d changed under writes to the live tree", seed, round, i)
				}
			}
		}
		// The other direction: write to a snapshot, the live tree and the
		// older snapshots stay put.
		want := encoded(live)
		fork := live.Snapshot()
		churn(t, fork, rng, 10_000)
		if !bytes.Equal(encoded(live), want) {
			t.Fatalf("seed %d: live tree changed under writes to its snapshot", seed)
		}
		for i, f := range snaps {
			if !bytes.Equal(encoded(f.tree), f.want) {
				t.Fatalf("seed %d: snapshot %d changed under writes to a later snapshot", seed, i)
			}
		}
	}
}

// TestNodesWrittenMatchesAlwaysClone pins the cost model: rewriting an
// unshared node in place charges exactly what cloning it charged, and
// leaves exactly the same tree, on every operation of a random history
// with snapshots taken along the way.
func TestNodesWrittenMatchesAlwaysClone(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		order := 4 + rng.Intn(13)
		tr, oracle := New(order), newOracle(order)
		var keep []*Tree // snapshots stay reachable, so their nodes stay shared
		for i := 0; i < 30_000; i++ {
			name := fmt.Sprintf("k%04d", rng.Intn(2500))
			switch p := rng.Intn(100); {
			case p < 38:
				got, ok := tr.Delete(name)
				want, wantOK := oracle.Delete(name)
				if got != want || ok != wantOK {
					t.Fatalf("seed %d op %d: Delete(%s) wrote %d nodes (ok=%v), always-clone %d (ok=%v)", seed, i, name, got, ok, want, wantOK)
				}
			case p < 99:
				r := Record{Name: name, Ino: namespace.InodeID(i), Size: int64(p)}
				got, err := tr.Insert(r)
				want, _ := oracle.Insert(r)
				if err != nil || got != want {
					t.Fatalf("seed %d op %d: Insert(%s) wrote %d nodes (err %v), always-clone %d", seed, i, name, got, err, want)
				}
			default:
				keep = append(keep, tr.Snapshot())
			}
			if i%500 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, i, err)
				}
				if err := sameShape(tr.root, oracle.root); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, i, err)
				}
			}
		}
		if tr.size != oracle.size {
			t.Fatalf("seed %d: %d entries, always-clone %d", seed, tr.size, oracle.size)
		}
		if err := sameShape(tr.root, oracle.root); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(keep) == 0 {
			t.Fatalf("seed %d: no snapshot taken", seed)
		}
	}
}

// TestUnsharedWritesAllocFree pins the write path of a directory object
// no snapshot shares: replacing an entry, and deleting then re-creating
// one in a leaf with room to spare, rewrite the path in place and
// allocate nothing. The same operations after Snapshot copy the path
// again — the always-clone cost, paid only while something shares it.
func TestUnsharedWritesAllocFree(t *testing.T) {
	tr := New(16)
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(2000) {
		if _, err := tr.Insert(Record{Name: fmt.Sprintf("k%04d", i), Ino: namespace.InodeID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A key in a leaf with spare records, so the delete cannot underflow
	// it and the insert cannot split it.
	var name string
	for i := 0; name == ""; i++ {
		n := tr.root
		for k := fmt.Sprintf("k%04d", i); !n.leaf; {
			n = n.children[childIndex(n, k)]
		}
		if len(n.keys) > tr.minKeys()+1 && len(n.keys) < tr.order {
			name = n.keys[1]
		}
	}
	r, _ := tr.Get(name)
	replace := func() {
		r.Size++
		if w, err := tr.Insert(r); err != nil || w != tr.Height() {
			t.Fatalf("replace wrote %d nodes (err %v), want the path of %d", w, err, tr.Height())
		}
	}
	recreate := func() {
		if w, ok := tr.Delete(name); !ok || w != tr.Height() {
			t.Fatalf("delete wrote %d nodes (ok=%v), want the path of %d", w, ok, tr.Height())
		}
		replace()
	}
	recreate() // warm-up: the leaf's slices reach their steady capacity
	if allocs := testing.AllocsPerRun(200, replace); allocs > 0 {
		t.Fatalf("replace on an unshared tree allocated %.2f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, recreate); allocs > 0 {
		t.Fatalf("delete+insert on an unshared tree allocated %.2f times, want 0", allocs)
	}

	snapshot := tr.Snapshot()
	want := encoded(snapshot)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replace()
	runtime.ReadMemStats(&after)
	if after.Mallocs == before.Mallocs {
		t.Fatal("first write after Snapshot copied nothing: the snapshot is being written in place")
	}
	if allocs := testing.AllocsPerRun(200, replace); allocs > 0 {
		t.Fatalf("replace allocated %.2f times once the path was copied away from the snapshot, want 0", allocs)
	}
	if !bytes.Equal(encoded(snapshot), want) {
		t.Fatal("snapshot changed")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShrunkLeafGivesBackSlack pins the other half of in-place writes: a
// directory that loses most of its entries does not keep the slices of
// its largest size (an always-clone tree shed them on every write).
func TestShrunkLeafGivesBackSlack(t *testing.T) {
	tr := New(32)
	for i := 0; i < 30; i++ {
		if _, err := tr.Insert(Record{Name: fmt.Sprintf("k%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 26; i++ {
		tr.Delete(fmt.Sprintf("k%02d", i))
	}
	if n := tr.root; !n.leaf || len(n.keys) != 4 || cap(n.keys) > 2*len(n.keys)+4 || cap(n.recs) > 2*len(n.recs)+4 {
		t.Fatalf("leaf of %d entries holds capacity for %d keys and %d records", len(n.keys), cap(n.keys), cap(n.recs))
	}
}

// decoded restores a tree from encoded's bytes.
func decoded(data []byte) (*Tree, error) {
	r, err := snap.NewReader(data)
	if err != nil {
		return nil, err
	}
	t, dec := New(MinOrder), snap.Decoder(r)
	dec.Section("tree", t.Snap)
	return t, dec.Err()
}

// TestSnapRestoresShapeAndBoundsWhatItBuilds: a restored tree has the
// node structure of the one written, so it re-encodes to the same bytes
// and charges the same update costs. A restore builds what the file
// says, so the file may not say more than its own size allows: a
// negative or oversized count, more records than the declared size, and
// nesting deeper than a tree of that size can have are errors before
// anything is built for them.
func TestSnapRestoresShapeAndBoundsWhatItBuilds(t *testing.T) {
	tr := New(8)
	churn(t, tr, rand.New(rand.NewSource(3)), 4000)
	want := encoded(tr)
	back, err := decoded(want)
	if err != nil {
		t.Fatal(err)
	}
	if back.size != tr.size || back.Height() != tr.Height() || !bytes.Equal(encoded(back), want) {
		t.Fatalf("restored tree differs: %d entries height %d, want %d height %d",
			back.size, back.Height(), tr.size, tr.Height())
	}
	if w1, w2 := mustInsert(t, tr, "zz-new"), mustInsert(t, back, "zz-new"); w1 != w2 {
		t.Errorf("the same insert rewrites %d nodes in the original and %d in the restored tree", w1, w2)
	}

	leaf := func(w *snap.Writer, names ...string) {
		w.Bool(true)
		w.I64(int64(len(names)))
		for _, name := range names {
			w.String(name)
			w.U64(1)
			w.U64(0)
			w.U64(0)
			w.I64(0)
		}
	}
	cases := []struct {
		name, want string
		body       func(w *snap.Writer)
	}{
		{"order below the minimum", "order 2 below minimum", func(w *snap.Writer) { w.I64(2); w.I64(0); leaf(w) }},
		{"negative size", "count -1", func(w *snap.Writer) { w.I64(8); w.I64(-1); leaf(w) }},
		{"negative record count", "count -3", func(w *snap.Writer) { w.I64(8); w.I64(1); w.Bool(true); w.I64(-3) }},
		{"record count past the section", "count 1000000", func(w *snap.Writer) { w.I64(8); w.I64(1); w.Bool(true); w.I64(1000000) }},
		{"more records than the size", "more than its 2 records", func(w *snap.Writer) {
			w.I64(8)
			w.I64(2)
			leaf(w, "a", "b", "c")
			w.String("padding so that the declared size, not the section, is the bound that refuses")
		}},
		{"deeper than the size allows", "deeper than its 4 records allow", func(w *snap.Writer) {
			w.I64(8)
			w.I64(4)
			for depth := 0; depth < 64; depth++ { // a chain of one-child internal nodes
				w.Bool(false)
				w.I64(0)
			}
			leaf(w, "a", "b", "c", "d")
		}},
		{"fewer records than the size", "size 3 != counted 1", func(w *snap.Writer) { w.I64(8); w.I64(3); leaf(w, "a"); w.U64(0); w.U64(0) }},
	}
	for _, tc := range cases {
		w := snap.NewWriter()
		w.Begin("tree")
		tc.body(w)
		w.End()
		if _, err := decoded(w.Bytes()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func mustInsert(t *testing.T, tr *Tree, name string) int {
	t.Helper()
	w, err := tr.Insert(Record{Name: name, Ino: 1})
	if err != nil {
		t.Fatal(err)
	}
	return w
}
