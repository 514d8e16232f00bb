package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"dynmds/internal/namespace"
	"dynmds/internal/snap"
)

// refCache is the reference model of the differential test: the cache as
// it was before entries were recycled and the victim scan got a cursor.
// Every eviction scans its segment from the LRU tail, every insert
// allocates, the ancestor chain is built root-first on every InsertPath,
// and the bulk removals run the "children before parents" fixpoint over
// a collected slice. Segments are plain slices, MRU first.
type refCache struct {
	capacity  int
	byID      map[namespace.InodeID]*refEntry
	hot, warm []*refEntry
	stats     Stats
	evicted   []namespace.InodeID
}

type refEntry struct {
	ino           *namespace.Inode
	class         Class
	pins          int
	parent        *refEntry
	hot, detached bool
}

func newRef(capacity int) *refCache {
	return &refCache{capacity: capacity, byID: make(map[namespace.InodeID]*refEntry)}
}

func (r *refCache) seg(e *refEntry) *[]*refEntry {
	if e.hot {
		return &r.hot
	}
	return &r.warm
}

func (r *refCache) unlink(e *refEntry) {
	l := r.seg(e)
	for i, x := range *l {
		if x == e {
			*l = append((*l)[:i], (*l)[i+1:]...)
			return
		}
	}
	panic("ref: entry not on its segment")
}

func (r *refCache) pushFront(e *refEntry) {
	l := r.seg(e)
	*l = append([]*refEntry{e}, *l...)
}

func (r *refCache) touch(e *refEntry) {
	r.unlink(e)
	e.hot = true
	r.pushFront(e)
}

func (r *refCache) get(id namespace.InodeID) bool {
	e := r.byID[id]
	if e == nil {
		r.stats.Misses++
		return false
	}
	r.stats.Hits++
	r.touch(e)
	return true
}

func (r *refCache) insert(ino *namespace.Inode, cl Class, warm, detached bool) bool {
	if e := r.byID[ino.ID]; e != nil {
		if !detached && (cl == Auth || (cl == Replica && e.class == Prefix)) {
			e.class = cl
		}
		if !warm {
			r.touch(e)
		}
		return true
	}
	var pe *refEntry
	if p := ino.Parent(); p != nil && !detached {
		if pe = r.byID[p.ID]; pe == nil {
			return false
		}
	}
	e := &refEntry{ino: ino, class: cl, hot: !warm, parent: pe, detached: detached}
	r.byID[ino.ID] = e
	if pe != nil {
		pe.pins++
	}
	r.pushFront(e)
	r.evictToCapacity(e)
	return true
}

func (r *refCache) insertPath(ino *namespace.Inode, cl Class, warm bool) bool {
	var up []*namespace.Inode
	for c := ino.Parent(); c != nil; c = c.Parent() {
		up = append(up, c)
	}
	for i := len(up) - 1; i >= 0; i-- {
		if r.byID[up[i].ID] == nil && !r.insert(up[i], Prefix, false, false) {
			return false
		}
	}
	return r.insert(ino, cl, warm, false)
}

// victim is the old tail scan.
func (r *refCache) victim(l []*refEntry, protect *refEntry) *refEntry {
	for i := len(l) - 1; i >= 0; i-- {
		if e := l[i]; e.pins == 0 && e != protect {
			return e
		}
	}
	return nil
}

func (r *refCache) evictToCapacity(protect *refEntry) {
	for len(r.byID) > r.capacity {
		e := r.victim(r.warm, protect)
		if e == nil {
			e = r.victim(r.hot, protect)
		}
		if e == nil {
			return
		}
		r.drop(e)
		r.evicted = append(r.evicted, e.ino.ID)
	}
}

func (r *refCache) drop(e *refEntry) {
	r.unlink(e)
	delete(r.byID, e.ino.ID)
	if e.parent != nil {
		e.parent.pins--
		e.parent = nil
	}
}

func (r *refCache) remove(id namespace.InodeID) bool {
	e := r.byID[id]
	if e == nil {
		return true
	}
	if e.pins > 0 {
		return false
	}
	r.drop(e)
	return true
}

// removeWhere is the old fixpoint shared by RemoveSubtree, Clear and
// DropDestroyed.
func (r *refCache) removeWhere(match func(*refEntry) bool) int {
	var victims []*refEntry
	for _, l := range [][]*refEntry{r.hot, r.warm} {
		for _, e := range l {
			if match(e) {
				victims = append(victims, e)
			}
		}
	}
	removed := 0
	for progress := true; progress; {
		progress = false
		for _, e := range victims {
			if r.byID[e.ino.ID] == e && e.pins == 0 {
				r.drop(e)
				removed++
				progress = true
			}
		}
	}
	return removed
}

// diffWorld drives a Cache and the reference through one random history
// over a namespace that changes underneath them.
type diffWorld struct {
	t     *testing.T
	rng   *rand.Rand
	tree  *namespace.Tree
	dirs  []*namespace.Inode
	files []*namespace.Inode
	c     *Cache
	ref   *refCache
	// evicted is what OnEvict saw, in order.
	evicted []namespace.InodeID
	names   int
	// pageAt is the directory slot each index page was last seen in;
	// refills counts pages seen again in another slot, i.e. handed back
	// empty and taken for a different ID range.
	pageAt  map[uint16]int
	refills int
}

func newDiffWorld(t *testing.T, seed int64, capacity, files int) *diffWorld {
	w := &diffWorld{t: t, rng: rand.New(rand.NewSource(seed)), tree: emptyTree(), pageAt: make(map[uint16]int)}
	w.dirs = []*namespace.Inode{w.tree.Root}
	for i := 0; i < 150; i++ {
		parent := w.dirs[w.rng.Intn(len(w.dirs))]
		if parent.Depth() >= 6 {
			parent = w.tree.Root
		}
		d, err := w.tree.Mkdir(parent, w.name("d"))
		if err != nil {
			t.Fatal(err)
		}
		w.dirs = append(w.dirs, d)
	}
	for i := 0; i < files; i++ {
		w.create()
	}
	w.attach(New(capacity))
	w.ref = newRef(capacity)
	return w
}

func (w *diffWorld) name(prefix string) string {
	w.names++
	return fmt.Sprintf("%s%d", prefix, w.names)
}

func (w *diffWorld) create() {
	f, err := w.tree.Create(w.dirs[w.rng.Intn(len(w.dirs))], w.name("f"))
	if err != nil {
		w.t.Fatal(err)
	}
	w.files = append(w.files, f)
}

func (w *diffWorld) attach(c *Cache) {
	w.c = c
	c.OnEvict = func(e *Entry) { w.evicted = append(w.evicted, e.Ino.ID) }
}

// pickAny returns a live file or directory.
func (w *diffWorld) pickAny() *namespace.Inode {
	if w.rng.Intn(5) == 0 {
		return w.dirs[w.rng.Intn(len(w.dirs))]
	}
	return w.files[w.rng.Intn(len(w.files))]
}

func (w *diffWorld) resolvable() bool {
	ok := true
	w.c.ForEach(func(e *Entry) {
		if _, live := w.tree.ByID(e.Ino.ID); !live {
			ok = false
		}
	})
	return ok
}

func (w *diffWorld) dead(id namespace.InodeID) bool {
	_, ok := w.tree.ByID(id)
	return !ok
}

// step applies one random operation to both caches and compares what
// the operation returned.
func (w *diffWorld) step() string {
	rng := w.rng
	classes := [...]Class{Auth, Prefix, Replica}
	cl, warm := classes[rng.Intn(3)], rng.Intn(3) == 0
	switch p := rng.Intn(1000); {
	case p < 380:
		ino := w.pickAny()
		_, err := w.c.InsertPath(ino, cl, warm)
		if ok := w.ref.insertPath(ino, cl, warm); ok != (err == nil) {
			w.t.Fatalf("InsertPath(%s): err %v, reference ok=%v", ino, err, ok)
		}
		return "InsertPath"
	case p < 480:
		// Plain Insert: fails on both sides when the parent is uncached.
		ino := w.pickAny()
		_, err := w.c.Insert(ino, cl, warm)
		if ok := w.ref.insert(ino, cl, warm, false); ok != (err == nil) {
			w.t.Fatalf("Insert(%s): err %v, reference ok=%v", ino, err, ok)
		}
		return "Insert"
	case p < 510:
		ino := w.pickAny()
		w.c.InsertDetached(ino, cl, warm)
		w.ref.insert(ino, cl, warm, true)
		return "InsertDetached"
	case p < 800:
		// Half the lookups aim at something cached (a hit reorders the
		// LRU); the rest draw any ID, some past the directory's end.
		id := namespace.InodeID(rng.Intn(int(w.tree.MaxID()) + 8))
		if k := rng.Intn(2 * (len(w.ref.hot) + len(w.ref.warm) + 1)); k < len(w.ref.hot) {
			id = w.ref.hot[k].ino.ID
		} else if k -= len(w.ref.hot); k < len(w.ref.warm) {
			id = w.ref.warm[k].ino.ID
		}
		_, hit := w.c.Get(id)
		if want := w.ref.get(id); hit != want {
			w.t.Fatalf("Get(%d) = %v, reference %v", id, hit, want)
		}
		return "Get"
	case p < 852:
		id := w.pickAny().ID
		err := w.c.Remove(id)
		if ok := w.ref.remove(id); ok != (err == nil) {
			w.t.Fatalf("Remove(%d): err %v, reference ok=%v", id, err, ok)
		}
		return "Remove"
	case p < 860:
		root := w.dirs[rng.Intn(len(w.dirs))]
		got := w.c.RemoveSubtree(root)
		want := w.ref.removeWhere(func(e *refEntry) bool { return e.ino == root || root.IsAncestorOf(e.ino) })
		if got != want {
			w.t.Fatalf("RemoveSubtree(%s) = %d, reference %d", root, got, want)
		}
		return "RemoveSubtree"
	case p < 861:
		seen := 0
		got := w.c.Clear(func(*Entry) { seen++ })
		want := w.ref.removeWhere(func(*refEntry) bool { return true })
		if got != want || seen != want {
			w.t.Fatalf("Clear = %d (callback saw %d), reference %d", got, seen, want)
		}
		return "Clear"
	case p < 900:
		// Unlink a file; its cached copies stay until evicted or GCed.
		i := rng.Intn(len(w.files))
		if err := w.tree.Remove(w.files[i]); err != nil {
			w.t.Fatal(err)
		}
		w.files[i] = w.files[len(w.files)-1]
		w.files = w.files[:len(w.files)-1]
		w.create()
		return "unlink+create"
	case p < 915:
		got := w.c.DropDestroyed(w.dead)
		want := w.ref.removeWhere(func(e *refEntry) bool { return w.dead(e.ino.ID) })
		if got != want {
			w.t.Fatalf("DropDestroyed = %d, reference %d", got, want)
		}
		return "DropDestroyed"
	case p < 985:
		// Rename while cached: the entry keeps the pin it took, and a
		// later InsertPath below it walks the new chain.
		ino := w.pickAny()
		if ino == w.tree.Root {
			return "rename(skipped)"
		}
		// A move into its own subtree is refused; nothing changes then.
		_ = w.tree.Rename(ino, w.dirs[rng.Intn(len(w.dirs))], w.name("r"))
		return "rename"
	default:
		// Checkpoint and restore into a fresh cache, after the GC a real
		// checkpoint runs first. A destroyed directory still pinned by a
		// renamed-away child cannot be serialized; skip those instants.
		w.c.DropDestroyed(w.dead)
		w.ref.removeWhere(func(e *refEntry) bool { return w.dead(e.ino.ID) })
		if !w.resolvable() {
			return "restore(skipped)"
		}
		sw := snap.NewWriter()
		snap.Encoder(sw).Section("cache", func(sc *snap.Codec) { w.c.Snap(sc, w.tree) })
		sr, err := snap.NewReader(sw.Bytes())
		if err != nil {
			w.t.Fatal(err)
		}
		fresh, dec := New(w.c.capacity), snap.Decoder(sr)
		if dec.Section("cache", func(sc *snap.Codec) { fresh.Snap(sc, w.tree) }); dec.Err() != nil {
			w.t.Fatal(dec.Err())
		}
		w.attach(fresh)
		return "restore"
	}
}

// compare checks everything observable: stats, size, class counts, the
// pinned fraction, the victim sequence and the exact LRU order.
func (w *diffWorld) compare(op string, deep bool) {
	t, c, r := w.t, w.c, w.ref
	if c.Stats != r.stats {
		t.Fatalf("after %s: stats %+v, reference %+v", op, c.Stats, r.stats)
	}
	if c.n != len(r.byID) {
		t.Fatalf("after %s: len %d, reference %d", op, c.n, len(r.byID))
	}
	if len(w.evicted) != len(r.evicted) {
		t.Fatalf("after %s: %d victims, reference %d", op, len(w.evicted), len(r.evicted))
	}
	for i := len(w.evicted) - 1; i >= 0 && i >= len(w.evicted)-4; i-- {
		if w.evicted[i] != r.evicted[i] {
			t.Fatalf("after %s: victim %d is inode %d, reference %d", op, i, w.evicted[i], r.evicted[i])
		}
	}
	if !deep {
		return
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after %s: %v", op, err)
	}
	for i, p := range c.dir {
		if p == 0 {
			continue
		}
		if j, seen := w.pageAt[p]; seen && j != i {
			w.refills++
		}
		w.pageAt[p] = i
	}
	order := append(append([]*refEntry(nil), r.hot...), r.warm...)
	pinned, i := 0, 0
	var counts [3]int
	c.ForEach(func(e *Entry) {
		if i < len(order) {
			x := order[i]
			if e.Ino != x.ino || e.Class != x.class || e.hot != x.hot || int(e.pins) != x.pins || e.detached != x.detached {
				t.Fatalf("after %s: LRU position %d is %s (%v hot=%v pins=%d), reference %s (%v hot=%v pins=%d)",
					op, i, e.Ino, e.Class, e.hot, e.pins, x.ino, x.class, x.hot, x.pins)
			}
			if x.pins > 0 {
				pinned++
			}
			counts[x.class]++
		}
		i++
	})
	if i != len(order) {
		t.Fatalf("after %s: ForEach visited %d entries, reference holds %d", op, i, len(order))
	}
	for cl, n := range counts {
		if c.classCount[cl] != n {
			t.Fatalf("after %s: %d %v entries, reference %d", op, c.classCount[cl], Class(cl), n)
		}
	}
	if len(order) > 0 {
		if got, want := c.PrefixFraction(), float64(pinned)/float64(len(order)); got != want {
			t.Fatalf("after %s: prefix fraction %v, reference %v", op, got, want)
		}
	}
}

// TestDifferentialAgainstTailScan runs 225k seeded random operations
// against the reference model: the recycled entries, the scan cursor,
// the paged index and the stack-buffer InsertPath must be invisible —
// same victims in the same order, same stats, same LRU order — across
// capacities from a cache that is almost all pinned prefixes to one that
// rarely evicts. The last history runs over a tree ten times wider, ~1300
// index pages against a capacity of 64, so pages empty and refill all
// the time.
func TestDifferentialAgainstTailScan(t *testing.T) {
	const opsPerCapacity = 25_000
	cases := []struct{ capacity, files int }{
		{8, 4000}, {13, 4000}, {32, 4000}, {64, 4000}, {100, 4000}, {256, 4000}, {400, 4000}, {512, 4000},
		{64, 40_000},
	}
	for i, tc := range cases {
		capacity := tc.capacity
		w := newDiffWorld(t, int64(i+1), capacity, tc.files)
		ops := make(map[string]int)
		for n := 0; n < opsPerCapacity; n++ {
			op := w.step()
			ops[op]++
			w.compare(op, n%64 == 0)
		}
		w.compare("the last operation", true)
		for i := range w.evicted {
			if w.evicted[i] != w.ref.evicted[i] {
				t.Fatalf("capacity %d: victim %d is inode %d, reference %d", capacity, i, w.evicted[i], w.ref.evicted[i])
			}
		}
		if len(w.evicted) == 0 || ops["restore"] == 0 || ops["rename"] == 0 || w.refills == 0 {
			t.Fatalf("capacity %d: history too tame: %d evictions, %d page refills, ops %v", capacity, len(w.evicted), w.refills, ops)
		}
	}
}
