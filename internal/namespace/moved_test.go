package namespace

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dynmds/internal/snap"
)

// namesBase is a small frozen base whose names repeat across
// directories, so a rename or create can land on any base entry's
// frozen (parent, name): /a, /b, /a/c are directories, and x, y, z, w
// files are spread over all four.
func namesBase(t testing.TB) *Frozen {
	b := NewBuilder()
	a := b.Mkdir(b.Root(), "a")
	bd := b.Mkdir(b.Root(), "b")
	c := b.Mkdir(a, "c")
	for _, e := range []struct {
		dir  InodeID
		name string
	}{{b.Root(), "x"}, {b.Root(), "y"}, {a, "x"}, {a, "z"}, {bd, "y"}, {bd, "w"}, {c, "x"}, {c, "b"}} {
		b.Create(e.dir, e.name)
	}
	f, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fuzzNames is the alphabet the fuzz ops draw entry names from: every
// base name and one no base entry has.
var fuzzNames = []string{"a", "b", "c", "x", "y", "z", "w", "v"}

// checkNames holds every reachable directory's LookupChild to a map
// built from its child list, for every name in fuzzNames and every
// child's, and every child's position to its index; CheckInvariants
// must pass.
func checkNames(t *testing.T, tr *Tree, what string) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	tr.Walk(func(d *Inode) bool {
		if !d.IsDir() {
			return true
		}
		ref := make(map[string]*Inode)
		probes := append([]string(nil), fuzzNames...)
		for i, c := range d.Children() {
			if c.pos != uint32(i) {
				t.Fatalf("%s: %s is child %d of %s, its position says %d", what, c, i, d, c.pos)
			}
			ref[c.name] = c
			probes = append(probes, c.name)
		}
		for _, name := range probes {
			got, ok := d.LookupChild(name)
			if want, wok := ref[name]; ok != wok || got != want {
				t.Fatalf("%s: %s LookupChild(%q) = %v, %v; its child list has %v, %v", what, d, name, got, ok, want, wok)
			}
		}
		return true
	})
}

// checkCreated holds ByID to made, the run-created inodes by ID (nil
// once removed), over every ID past the base the run has spent or will
// spend next: a live one resolves to an inode of its ID and path, a
// removed one or an ID a refused create spent to nothing.
func checkCreated(t *testing.T, tr *Tree, made map[InodeID]*Inode, what string) {
	t.Helper()
	for id := InodeID(len(tr.base.nodes)) + 1; id <= tr.MaxID()+1; id++ {
		want := made[id]
		got, ok := tr.ByID(id)
		if ok != (want != nil) || ok && (got.ID != id || got.Path() != want.Path()) {
			t.Fatalf("%s: ByID(%d) = %v, %v; want %v", what, id, got, ok, want)
		}
	}
}

// FuzzOverlayNames drives an overlay of a small frozen base through
// creates, mkdirs, unlinks and renames chosen by the input — renames
// back to a base entry's frozen (parent, name), unlinks of base
// entries, directory moves and refused duplicate names among them. After
// every op the name index must agree with the child lists (checkNames)
// and ByID with the run-created inodes (checkCreated), and a checkpoint
// restored onto a fresh overlay must give the same child order, lookups
// and ByID.
func FuzzOverlayNames(f *testing.F) {
	base := namesBase(f)
	f.Add([]byte{0, 0, 1, 7, 2, 3, 0, 0, 4, 3, 0, 0})
	f.Add([]byte{3, 4, 5, 7, 4, 4, 0, 0, 3, 1, 2, 3, 4, 1, 0, 0, 2, 9, 0, 0})
	f.Add([]byte{1, 0, 2, 6, 3, 3, 6, 5, 0, 0, 6, 5, 2, 5, 0, 0, 4, 3, 0, 0, 3, 2, 0, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Every step checks the whole tree twice over: 64 steps keep an
		// input's cost bounded.
		ops = ops[:min(len(ops), 256)]
		ov := NewOverlay(base)
		made := map[InodeID]*Inode{}
		for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
			live := walkOrder(ov)
			n := live[int(ops[1])%len(live)]
			var dir *Inode
			for off := range live {
				if d := live[(int(ops[2])+off)%len(live)]; d.IsDir() {
					dir = d
					break
				}
			}
			name := fuzzNames[int(ops[3])%len(fuzzNames)]
			op := ops[0] % 5
			if op == 4 {
				// Back to the frozen place, if n has one and its frozen
				// parent still exists.
				if !ov.IsBase(n.ID) || n == ov.Root {
					continue
				}
				fn := base.node(n.ID)
				if ov.Tombstoned(fn.parent) {
					continue
				}
				dir, name = ov.node(fn.parent), fn.name
			}
			var taken bool
			for _, c := range dir.Children() {
				taken = taken || c.name == name
			}
			var err error
			var c *Inode
			switch op {
			case 0:
				c, err = ov.Create(dir, name)
			case 1:
				c, err = ov.Mkdir(dir, name)
			case 2:
				if err, taken = ov.Remove(n), false; err == nil && !ov.IsBase(n.ID) {
					made[n.ID] = nil
				}
			case 3, 4:
				err = ov.Rename(n, dir, name)
			}
			if c != nil {
				made[c.ID] = c
			}
			what := "step " + strconv.Itoa(step)
			if taken && err == nil {
				t.Fatalf("%s: op %d put a second %q into %s", what, op, name, dir)
			}
			checkNames(t, ov, what)
			checkCreated(t, ov, made, what)

			w := snap.NewWriter()
			snap.Encoder(w).Section("tree", ov.Snap)
			r, err := snap.NewReader(w.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			got, dec := NewOverlay(base), snap.Decoder(r)
			if dec.Section("tree", got.Snap); dec.Err() != nil {
				t.Fatalf("%s: restore: %v", what, dec.Err())
			}
			requireSameShape(t, ov, got)
			checkNames(t, got, what+", restored")
			checkCreated(t, got, made, what+", restored")
		}
	})
}

// TestMovedSetChurn: thousands of entries through one tree's moved set
// — it grows, entries leave from every probe position, base entries go
// away and come back — and lookups and the invariants hold throughout.
func TestMovedSetChurn(t *testing.T) {
	_, f := genBase(t, 9, 20, 6)
	ov := NewOverlay(f)
	r := rand.New(rand.NewSource(3))
	var dirs, made []*Inode
	ov.Walk(func(n *Inode) bool {
		if n.IsDir() {
			dirs = append(dirs, n)
		}
		return true
	})
	for step := 0; step < 6000; step++ {
		switch d := dirs[r.Intn(len(dirs))]; r.Intn(4) {
		case 0, 1:
			if n, err := ov.Create(d, "n"+strconv.Itoa(r.Intn(400))); err == nil {
				made = append(made, n)
			}
		case 2:
			if len(made) > 0 {
				i := r.Intn(len(made))
				if err := ov.Remove(made[i]); err != nil {
					t.Fatal(err)
				}
				made[i] = made[len(made)-1]
				made = made[:len(made)-1]
			}
		case 3:
			// A base entry leaves its frozen place and half the time
			// returns to it.
			n := ov.node(InodeID(2 + r.Intn(f.NumInodes()-1)))
			if n.parent == nil || n.IsDir() {
				continue
			}
			fn := f.node(n.ID)
			if err := ov.Rename(n, d, "m"+strconv.Itoa(step)); err != nil {
				t.Fatal(err)
			}
			if r.Intn(2) == 0 {
				if err := ov.Rename(n, ov.node(fn.parent), fn.name); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step%500 == 0 {
			if err := ov.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if ov.moved.n < 500 {
		t.Fatalf("only %d moved entries: the churn did not grow the set", ov.moved.n)
	}
	if err := ov.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, n := range made {
		if got, ok := n.parent.LookupChild(n.name); !ok || got != n {
			t.Fatalf("%s not found through its parent", n)
		}
	}
}

// TestCheckInvariantsMovedSet: the moved set must hold exactly the
// reachable inodes away from their frozen place, each attached. Planted
// violations — a detach that skipped the set deletion, a renamed base
// entry missing from the set, an entry at its frozen place in it — are
// reported.
func TestCheckInvariantsMovedSet(t *testing.T) {
	for _, tc := range []struct {
		what   string
		plant  func(ov *Tree, made, renamed, file *Inode)
		errHas string
	}{
		{"a detach that skipped the set deletion", func(ov *Tree, made, _, _ *Inode) {
			// Remove, then restore the set as it was before: what a
			// detach that skipped the deletion would leave.
			kept := ov.moved
			kept.slots = slices.Clone(kept.slots)
			if err := ov.Remove(made); err != nil {
				t.Fatal(err)
			}
			ov.moved = kept
		}, "not attached"},
		{"a renamed base entry the set lost", func(ov *Tree, _, renamed, _ *Inode) {
			ov.moved.remove(renamed)
		}, "child index broken"},
		{"an entry at its frozen place", func(ov *Tree, _, _, file *Inode) {
			ov.moved.insert(file)
		}, "at its frozen place"},
	} {
		_, f := genBase(t, 5, 10, 3)
		ov := NewOverlay(f)
		var files []*Inode
		ov.Walk(func(n *Inode) bool {
			if !n.IsDir() {
				files = append(files, n)
			}
			return true
		})
		made := mustCreate(t, ov, files[0].parent, "made")
		if err := ov.Rename(files[1], ov.Root, "renamed"); err != nil {
			t.Fatal(err)
		}
		if err := ov.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		tc.plant(ov, made, files[1], files[2])
		if err := ov.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("%s: err %v, want one holding %q", tc.what, err, tc.errHas)
		}
	}
}
