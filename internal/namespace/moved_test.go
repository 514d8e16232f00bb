package namespace

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unsafe"

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
// and ByID with the run-created inodes (checkCreated), an inode created
// or renamed must keep a copy of its new name (checkKept), and a checkpoint
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
			switch {
			case op <= 1 && err == nil:
				checkKept(t, c, name, what)
			case op >= 3 && err == nil:
				checkKept(t, n, name, what)
			}
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

// checkKept holds the name a create, mkdir or rename gave n to the
// string the caller passed: equal, and a copy sharing no byte with it,
// since the caller's may sit in a block the tree must not hold.
func checkKept(t *testing.T, n *Inode, name, what string) {
	t.Helper()
	if n.Name() != name {
		t.Fatalf("%s: %s is named %q, want %q", what, n, n.Name(), name)
	}
	kept, given := uintptr(unsafe.Pointer(unsafe.StringData(n.name))), uintptr(unsafe.Pointer(unsafe.StringData(name)))
	if kept < given+uintptr(len(name)) && given < kept+uintptr(len(n.name)) {
		t.Fatalf("%s: %s keeps the caller's bytes of %q", what, n, name)
	}
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
			kept := ov.moved.clone()
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

// clone returns a deep copy of s: its own buckets, shared by the same
// directory slots.
func (s *movedSet) clone() movedSet {
	c, copies := *s, map[*movedBucket]*movedBucket{}
	c.dir = make([]*movedBucket, len(s.dir))
	for i, b := range s.dir {
		if copies[b] == nil {
			nb := *b
			copies[b] = &nb
		}
		c.dir[i] = copies[b]
	}
	return c
}

// movedKey is a moved-set key, for the reference map.
type movedKey struct {
	dir  InodeID
	name string
}

// movedWorld drives a bare moved set and a map reference through the
// same inserts, removes and renames over synthetic inodes: 64
// directories and entries named by a counter.
type movedWorld struct {
	t    *testing.T
	rng  *rand.Rand
	s    movedSet
	ref  map[movedKey]*Inode
	dirs []*Inode
	in   []*Inode // the entries the set holds, in no order
	made int
}

func (w *movedWorld) key(x *Inode) movedKey { return movedKey{x.parent.ID, x.name} }

// fresh returns a new entry under a random directory whose key the set
// does not hold; with topZero it retries until the hash's top topZero
// bits are zero, so every such entry lands in one corner of the table.
func (w *movedWorld) fresh(topZero uint) *Inode {
	for {
		w.made++
		x := &Inode{ID: InodeID(1000 + w.made), parent: w.dirs[w.rng.Intn(len(w.dirs))], name: "e" + strconv.Itoa(w.made)}
		if topZero == 0 || entryHash(x)>>(64-topZero) == 0 {
			return x
		}
	}
}

func (w *movedWorld) insert(x *Inode) {
	if w.ref[w.key(x)] != nil {
		w.t.Fatalf("key of %s/%s inserted twice", x.parent.name, x.name)
	}
	w.s.insert(x)
	w.ref[w.key(x)] = x
	w.in = append(w.in, x)
}

// remove takes the i-th held entry out of both, returning it.
func (w *movedWorld) remove(i int) *Inode {
	x := w.in[i]
	w.s.remove(x)
	delete(w.ref, w.key(x))
	w.in[i] = w.in[len(w.in)-1]
	w.in = w.in[:len(w.in)-1]
	return x
}

// step makes one random operation: insert (half the time, skewed or
// not), remove, or rename — a remove, a new key, an insert.
func (w *movedWorld) step(topZero uint) {
	switch r := w.rng.Intn(8); {
	case r < 4 || len(w.in) == 0:
		w.insert(w.fresh(topZero))
	case r < 6:
		w.remove(w.rng.Intn(len(w.in)))
	default:
		x := w.remove(w.rng.Intn(len(w.in)))
		y := w.fresh(topZero)
		x.parent, x.name = y.parent, y.name
		w.insert(x)
	}
}

// compare checks the table's structure and that every held key, and as
// many absent ones, look up as in the reference.
func (w *movedWorld) compare(what string) {
	w.t.Helper()
	if err := w.s.check(func(*Inode) error { return nil }); err != nil {
		w.t.Fatalf("%s: %v", what, err)
	}
	if w.s.n != len(w.ref) {
		w.t.Fatalf("%s: the set counts %d entries, reference %d", what, w.s.n, len(w.ref))
	}
	for k, x := range w.ref {
		if got := w.s.lookup(x.parent, k.name); got != x {
			w.t.Fatalf("%s: lookup(%d, %q) = %v, want %v", what, k.dir, k.name, got, x)
		}
	}
	for i := 0; i < len(w.ref); i++ {
		d, name := w.dirs[w.rng.Intn(len(w.dirs))], "e"+strconv.Itoa(w.rng.Intn(w.made+1))
		if got, want := w.s.lookup(d, name), w.ref[movedKey{d.ID, name}]; got != want {
			w.t.Fatalf("%s: lookup(%d, %q) = %v, reference %v", what, d.ID, name, got, want)
		}
	}
}

// TestMovedSetDifferential runs 150k seeded random inserts, removes
// and renames through a bare moved set and a map reference, in phases:
// growth past many directory doublings, balanced churn, a skewed phase
// whose keys all hash into one corner (one bucket splits again and
// again while the rest stay shallow, so directory slots share buckets),
// and a drain. Lookups of held and absent keys and the structural
// checks must agree with the reference after every phase.
func TestMovedSetDifferential(t *testing.T) {
	w := &movedWorld{t: t, rng: rand.New(rand.NewSource(5)), ref: map[movedKey]*Inode{}}
	for i := range 64 {
		w.dirs = append(w.dirs, &Inode{ID: InodeID(i + 1), Kind: Dir, name: "d" + strconv.Itoa(i)})
	}
	w.compare("empty")
	phases := []struct {
		what    string
		steps   int
		topZero uint
	}{
		{"growth", 40_000, 0},
		{"churn", 40_000, 0},
		{"skew", 30_000, 6},
		{"churn after skew", 30_000, 0},
	}
	for _, ph := range phases {
		for i := 0; i < ph.steps; i++ {
			w.step(ph.topZero)
		}
		w.compare(ph.what)
	}
	shallow := false
	for _, b := range w.s.dir {
		shallow = shallow || b.depth < w.s.depth
	}
	if w.s.depth < 8 || !shallow {
		t.Fatalf("global depth %d, a bucket below it %v: the history did not double the directory and split unevenly", w.s.depth, shallow)
	}
	for len(w.in) > 0 {
		w.remove(w.rng.Intn(len(w.in)))
	}
	w.compare("drained")
}

// BenchmarkMovedSetChurn measures the moved set under steady churn:
// 20 000 entries held, and each op removes one, inserts another and
// looks one up. Buckets never merge, so once the set has grown the
// timed loop allocates nothing.
func BenchmarkMovedSetChurn(b *testing.B) {
	const held = 20_000
	var dirs []*Inode
	for i := range 256 {
		dirs = append(dirs, &Inode{ID: InodeID(i + 1), Kind: Dir})
	}
	pool := make([]*Inode, 2*held)
	for i := range pool {
		pool[i] = &Inode{ID: InodeID(1000 + i), parent: dirs[i%len(dirs)], name: fmt.Sprintf("f%d", i)}
	}
	var s movedSet
	for _, x := range pool[:held] {
		s.insert(x)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, in := rng.Intn(held), held+rng.Intn(held)
		s.remove(pool[out])
		s.insert(pool[in])
		pool[out], pool[in] = pool[in], pool[out]
		if x := pool[rng.Intn(held)]; s.lookup(x.parent, x.name) != x {
			b.Fatal("a held entry was not found")
		}
	}
}
