// Package cache implements the MDS metadata cache. Two properties from
// the paper drive the design:
//
//   - Hierarchical consistency (§4.1): each MDS caches the prefix
//     (ancestor) inodes of everything in its cache, so the cached subset
//     of the hierarchy is always a tree. Only leaf items may be expired:
//     a directory cannot be evicted while cached items remain beneath it.
//     The cache enforces this with per-entry pin counts.
//
//   - Prefetch demotion (§4.5): directory contents prefetched alongside a
//     requested item are inserted "near the tail of the cache's LRU list"
//     so potentially-useful data cannot displace known-useful data. The
//     cache is a segmented LRU: a hot segment for demand-loaded entries
//     and a warm segment for prefetched ones; eviction drains the warm
//     segment first, and a warm hit promotes the entry to the hot MRU.
//
// Entries are classified (authoritative, prefix, replica) so experiments
// can measure the fraction of cache memory consumed by replicated prefix
// inodes (Figure 3).
package cache

import (
	"fmt"

	"dynmds/internal/namespace"
)

// Class describes why an entry is in the cache.
type Class uint8

// Entry classes.
const (
	// Auth: this MDS is authoritative for the item and it was demand
	// loaded (or created) here.
	Auth Class = iota
	// Prefix: an ancestor directory cached only to permit path
	// traversal / anchor a subtree; the interesting item is below it.
	Prefix
	// Replica: a read-only copy of an item another MDS is authoritative
	// for (traffic control or remote prefix).
	Replica
)

func (c Class) String() string {
	switch c {
	case Auth:
		return "auth"
	case Prefix:
		return "prefix"
	case Replica:
		return "replica"
	}
	return "unknown"
}

// Entry is a cached metadata record. The fields are ordered so it stays
// in the 48-byte size class: thousands live in every MDS cache.
type Entry struct {
	Ino *namespace.Inode
	// parent is the entry this one pinned at insert time. It is kept
	// explicitly (rather than re-deriving from Ino.Parent()) because
	// renames and unlinks move inodes while they are cached; the pin
	// must be released on exactly the entry it was taken on.
	parent *Entry
	prev   *Entry
	next   *Entry
	// stamp orders the entries of one segment: pushFront draws it from
	// the segment's counter, so it strictly decreases head to tail.
	stamp uint64
	// pins counts cached children; an entry with pins > 0 must not be
	// evicted (leaf-only expiry). A cache holds at most MaxEntries.
	pins uint16
	// ref is the entry's place in the cache's chunks, fixed when its
	// chunk is made: what an index slot holds.
	ref   ref
	Class Class
	hot   bool
	// detached entries (Lazy Hybrid) do not participate in the
	// hierarchical pinning protocol: LH's dual-entry ACLs remove the
	// need to keep ancestors cached.
	detached bool
}

// list is an intrusive doubly-linked LRU list; head = MRU, tail = LRU.
//
// cursor is where the victim scan resumes. Invariant: every entry
// strictly tail-ward of cursor is pinned (nil: every entry is), so a
// scan from cursor meets the same first unpinned entry as one from tail.
type list struct {
	head, tail *Entry
	cursor     *Entry
	n          int
	stamp      uint64
}

func (l *list) pushFront(e *Entry) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.n++
	l.stamp++
	e.stamp = l.stamp
	if l.cursor == nil {
		l.cursor = e
	}
}

// moveToFront is remove then pushFront for an entry already on l,
// without their count and nil-link updates: a hit on a hot entry.
func (l *list) moveToFront(e *Entry) {
	if e != l.head {
		if l.cursor == e {
			l.cursor = e.prev
		}
		e.prev.next = e.next
		if e.next != nil {
			e.next.prev = e.prev
		} else {
			l.tail = e.prev
		}
		e.prev, e.next = nil, l.head
		l.head.prev = e
		l.head = e
	}
	l.stamp++
	e.stamp = l.stamp
}

func (l *list) remove(e *Entry) {
	if l.cursor == e {
		l.cursor = e.prev
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

// Stats counts cache activity since construction.
type Stats struct {
	Hits, Misses uint64
}

// A ref names an entry by its place in the cache's chunks: chunk
// r>>entryBits, slot r&(entryChunk-1). Chunk 0 is never made, so ref 0
// is nil, and 16 bits address MaxEntries entries.
type ref uint16

// entryChunk is how many entries one refill of an empty free list
// allocates. Entries are recycled for the life of the cache, so a chunk
// is never partly dead, and a cache growing to capacity makes one
// allocation per 64 inserts.
const entryBits, entryChunk = 6, 1 << 6

// MaxEntries is how many entries one cache's refs address; MaxCapacity
// leaves one chunk of them for a fully pinned path to overflow into.
const (
	MaxEntries  = (1<<16/entryChunk - 1) * entryChunk
	MaxCapacity = MaxEntries - entryChunk
)

// A page holds the index slots of 1<<pageBits consecutive IDs; live
// counts the non-zero ones. Pages are made pageBlock at a time, in
// blocks that never move, and named by number: page k is slot
// k%pageBlock of block k/pageBlock, a shift and a mask. Spare pages are
// chained through next (unread while a page is listed). A listed page
// holds an entry, so at most MaxEntries pages and page 0 are listed,
// and with one block of spares a page number fits 16 bits. A block of
// 64 pages is 4352 bytes, in the 4864-byte size class; 60 would fill
// the 4096-byte class, but dividing by 60 on every lookup costs more
// than the 512 bytes a block saves.
const pageBits, pageSlots, pageBlock = 5, 1 << 5, 64

type page struct {
	slots [pageSlots]ref
	live  uint16
	next  uint16
}

// Cache is a bounded, segmented-LRU metadata cache.
type Cache struct {
	capacity int
	// dir is the id→entry index: InodeIDs are dense and never reused, so
	// "is this record cached?", asked on every path component of every
	// request, is three loads. dir[id>>pageBits] names the page
	// holding the range's slots, or page 0, all-zero and never written,
	// when no entry of the range is cached; so the index costs what the
	// cache holds plus 2 bytes per 32 IDs, not the highest ID.
	dir   []uint16
	spare uint16
	n     int
	hot   list
	warm  list

	// classCount tracks entries per class for O(1) prefix accounting.
	classCount [3]int
	// pinned counts entries with pins > 0 (PrefixFraction's numerator).
	pinned int

	// free chains recycled entries through next. An explicit list, not a
	// sync.Pool: reuse must not depend on GC timing.
	free *Entry
	// scratch is unwind's victim buffer, kept to avoid regrowing it.
	scratch []*Entry

	// OnEvict, if set, is called after an entry has been removed by
	// eviction (not by Remove); the MDS uses it to notify authorities
	// that a replica was discarded (§4.2). It may read the entry but
	// must not retain it: the entry is recycled when OnEvict returns.
	OnEvict func(*Entry)

	Stats Stats

	// chunks holds the entries refs name, indexed by ref>>entryBits:
	// every index a ref can hold, so reading one needs no bounds check.
	// made counts the chunks made; chunks[0] is never made.
	made   int
	chunks [1 << 16 >> entryBits]*[entryChunk]Entry
	// blocks holds the index pages, indexed by page number / pageBlock:
	// every index a page number can hold, so reading one needs no
	// bounds check. blocksMade counts the blocks made.
	blocksMade int
	blocks     [1 << 16 / pageBlock]*[pageBlock]page
}

// New creates a cache bounded to capacity entries. Capacity must be
// positive. A run's is at most MaxCapacity (cluster.Config.Validate); a
// larger one is accepted, but the cache panics if it is ever to hold
// more than MaxEntries entries.
func New(capacity int) *Cache {
	if capacity < 1 {
		panic("cache: capacity must be >= 1")
	}
	return &Cache{capacity: capacity}
}

// entry returns the entry r names: nil for ref 0, whose chunk is never
// made. Testing the chunk, not r, spares the load that a nil check of
// the chunk pointer would otherwise make.
func (c *Cache) entry(r ref) *Entry {
	if ch := c.chunks[r>>entryBits]; ch != nil {
		return &ch[r&(entryChunk-1)]
	}
	return nil
}

// lookup returns the entry for id, or nil.
func (c *Cache) lookup(id namespace.InodeID) *Entry { return c.entry(c.slot(id)) }

// slot returns id's index slot: the ref of its entry, or 0.
func (c *Cache) slot(id namespace.InodeID) ref {
	if i := uint64(id) >> pageBits; i < uint64(len(c.dir)) {
		return c.page(c.dir[i]).slots[id&(pageSlots-1)]
	}
	return 0
}

// page returns page k, which must have been made.
func (c *Cache) page(k uint16) *page { return &c.blocks[k/pageBlock][k%pageBlock] }

// store records the entry for id, taking a spare page when id's range
// has none and growing the directory by doubling as the ID space grows.
func (c *Cache) store(id namespace.InodeID, e *Entry) {
	i := int(id >> pageBits)
	if i >= len(c.dir) {
		c.dir = append(make([]uint16, 0, 2*i+1), c.dir...)[:2*i+1]
	}
	if c.dir[i] == 0 {
		if c.spare == 0 {
			c.addPages()
		}
		c.dir[i], c.spare = c.spare, c.page(c.spare).next
	}
	p := c.page(c.dir[i])
	p.slots[id&(pageSlots-1)] = e.ref
	p.live++
	c.n++
}

// addPages makes the next block of pages and lists them spare; the
// first block's first page is page 0, which stays all-zero. No page
// moves, so growing the index copies nothing.
func (c *Cache) addPages() {
	k := c.blocksMade * pageBlock
	if k+pageBlock > 1<<16 {
		panic(fmt.Sprintf("cache: more than %d index pages", k))
	}
	b := new([pageBlock]page)
	for j := range b[:pageBlock-1] {
		b[j].next = uint16(k + j + 1)
	}
	c.spare = uint16(k)
	if k == 0 {
		b[0].next, c.spare = 0, 1
	}
	c.blocks[c.blocksMade] = b
	c.blocksMade++
}

// erase clears id's slot and hands its page back to the spare list when
// that was the page's last entry: every slot is zero then, so the next
// taker needs no clearing.
func (c *Cache) erase(id namespace.InodeID) {
	i := id >> pageBits
	k := c.dir[i]
	p := c.page(k)
	p.slots[id&(pageSlots-1)] = 0
	if p.live--; p.live == 0 {
		c.dir[i], p.next, c.spare = 0, c.spare, k
	}
	c.n--
}

// forEach visits every entry (hot then warm segment, MRU first).
func (c *Cache) forEach(fn func(*Entry)) {
	for e := c.hot.head; e != nil; e = e.next {
		fn(e)
	}
	for e := c.warm.head; e != nil; e = e.next {
		fn(e)
	}
}

// PrefixFraction returns the fraction of cache entries serving as
// prefix (ancestor) inodes — Figure 3's metric. An entry is a prefix if
// cached items beneath it require it for path traversal, i.e. it is
// pinned by cached children; replicated prefixes on hashed strategies
// are included, and Lazy Hybrid's detached records never are.
func (c *Cache) PrefixFraction() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.pinned) / float64(c.n)
}

// Contains reports presence without touching LRU state or stats.
func (c *Cache) Contains(id namespace.InodeID) bool {
	return c.slot(id) != 0
}

// Get looks up an entry, recording a hit or miss and refreshing its
// recency (a warm entry is promoted to the hot segment).
func (c *Cache) Get(id namespace.InodeID) (*Entry, bool) {
	e := c.lookup(id)
	if e == nil {
		c.Stats.Misses++
		return nil, false
	}
	c.Stats.Hits++
	c.touch(e)
	return e, true
}

// segment returns the LRU segment e is (to be) linked on.
func (c *Cache) segment(e *Entry) *list {
	if e.hot {
		return &c.hot
	}
	return &c.warm
}

func (c *Cache) touch(e *Entry) {
	if e.hot {
		c.hot.moveToFront(e)
		return
	}
	c.warm.remove(e)
	e.hot = true
	c.hot.pushFront(e)
}

// Insert adds (or refreshes) an entry for ino. warm selects the
// prefetch segment. The entry's parent must already be cached unless ino
// is the root — that is the hierarchical-consistency invariant; callers
// use InsertPath to bring in the ancestor chain. Inserting may evict
// unpinned entries to stay within capacity.
func (c *Cache) Insert(ino *namespace.Inode, cl Class, warm bool) (*Entry, error) {
	var pe *Entry
	if parent := ino.Parent(); parent != nil {
		pe = c.lookup(parent.ID)
	}
	return c.insertUnder(ino, cl, warm, pe)
}

// insertUnder is Insert given pe, the cached entry of ino's parent (nil
// if none), which a path insert has already looked up.
func (c *Cache) insertUnder(ino *namespace.Inode, cl Class, warm bool, pe *Entry) (*Entry, error) {
	if e := c.lookup(ino.ID); e != nil {
		// Refresh: upgrade class priority (Auth > Replica > Prefix in
		// specificity: a direct request upgrades a prefix entry).
		if cl == Auth || (cl == Replica && e.Class == Prefix) {
			c.classCount[e.Class]--
			e.Class = cl
			c.classCount[cl]++
		}
		if !warm {
			c.touch(e)
		}
		return e, nil
	}
	if pe == nil && ino.Parent() != nil {
		return nil, fmt.Errorf("cache: inserting %s without cached parent", ino)
	}
	return c.add(ino, cl, warm, pe, false), nil
}

// newEntry takes an entry from the free list, refilling it with a new
// chunk when empty.
func (c *Cache) newEntry() *Entry {
	if c.free == nil {
		c.addChunk()
	}
	e := c.free
	c.free, e.next = e.next, nil
	return e
}

// addChunk makes the next chunk of entries and lists them free.
func (c *Cache) addChunk() {
	k := c.made + 1
	if k == len(c.chunks) {
		panic(fmt.Sprintf("cache: more than %d entries", MaxEntries))
	}
	chunk := new([entryChunk]Entry)
	for i := range chunk {
		chunk[i].ref = ref(k<<entryBits | i)
	}
	for i := range chunk[:entryChunk-1] {
		chunk[i].next = &chunk[i+1]
	}
	c.chunks[k], c.made, c.free = chunk, k, &chunk[0]
}

// add links a new entry for ino, pinning pe, and evicts down to
// capacity.
func (c *Cache) add(ino *namespace.Inode, cl Class, warm bool, pe *Entry, detached bool) *Entry {
	e := c.newEntry()
	e.Ino, e.Class, e.hot, e.parent, e.detached = ino, cl, !warm, pe, detached
	c.store(ino.ID, e)
	c.classCount[cl]++
	if pe != nil {
		if pe.pins++; pe.pins == 1 {
			c.pinned++
		}
	}
	c.segment(e).pushFront(e)
	// The new entry is protected from its own insertion's eviction pass:
	// a path insert brings in ancestors one at a time, and a chain link
	// must survive until its child pins it.
	c.evictToCapacity(e)
	return e
}

// InsertDetached caches ino without requiring (or pinning) its parent.
// Lazy Hybrid MDS nodes cache scattered file records with no ancestor
// chain; the dual-entry ACL carries the effective permissions.
func (c *Cache) InsertDetached(ino *namespace.Inode, cl Class, warm bool) *Entry {
	if e := c.lookup(ino.ID); e != nil {
		if !warm {
			c.touch(e)
		}
		return e
	}
	return c.add(ino, cl, warm, nil, true)
}

// InsertPath caches ino along with any missing ancestors (as Prefix
// entries), maintaining the tree invariant.
func (c *Cache) InsertPath(ino *namespace.Inode, cl Class, warm bool) (*Entry, error) {
	parent := ino.Parent()
	if parent == nil {
		return c.Insert(ino, cl, warm)
	}
	// The parent chain, nearest first, in a stack buffer: append moves
	// it to the heap only for a path deeper than the buffer. The parent
	// is looked up, not just probed: a whole chain hands its entry to
	// the insert.
	var buf [32]*namespace.Inode
	pe := c.lookup(parent.ID)
	chain, missing := append(buf[:0], parent), pe == nil
	for anc := parent.Parent(); anc != nil; anc = anc.Parent() {
		chain = append(chain, anc)
		missing = missing || !c.Contains(anc.ID)
	}
	if !missing {
		return c.insertUnder(ino, cl, warm, pe)
	}
	// Root down, re-checking at each step: an insert may evict an
	// ancestor further down the chain (a cached directory renamed under
	// an uncached one is an unpinned leaf until its new parent arrives).
	for i := len(chain) - 1; i >= 0; i-- {
		if anc := chain[i]; !c.Contains(anc.ID) {
			// Ancestors are always demand-relevant: hot.
			if _, err := c.Insert(anc, Prefix, false); err != nil {
				return nil, err
			}
		}
	}
	return c.Insert(ino, cl, warm)
}

// evictToCapacity removes unpinned entries, draining the warm segment
// before the hot one. If every entry is pinned the cache is allowed to
// exceed capacity (the next insert retries).
func (c *Cache) evictToCapacity(protect *Entry) {
	for c.n > c.capacity {
		e := c.warm.victim(protect)
		if e == nil {
			e = c.hot.victim(protect)
		}
		if e == nil {
			return
		}
		c.drop(e, true)
	}
}

// victim returns the unpinned entry nearest the LRU tail, other than
// protect, moving the cursor head-ward over the pinned entries it
// passes so the next scan does not walk them again.
func (l *list) victim(protect *Entry) *Entry {
	e := skipPinned(l.cursor)
	l.cursor = e
	if e != nil && e == protect {
		// protect is evictable next time: look past it, cursor unmoved.
		e = skipPinned(e.prev)
	}
	return e
}

// skipPinned returns the first unpinned entry from e head-ward, or nil.
func skipPinned(e *Entry) *Entry {
	for e != nil && e.pins > 0 {
		e = e.prev
	}
	return e
}

// drop unlinks e and recycles it. e is dead afterwards: OnEvict is the
// last reader.
func (c *Cache) drop(e *Entry, evicted bool) {
	c.segment(e).remove(e)
	c.erase(e.Ino.ID)
	c.classCount[e.Class]--
	if p := e.parent; p != nil {
		if p.pins--; p.pins == 0 {
			c.pinned--
			// p is evictable again: its segment's cursor must not
			// stay head-ward of it.
			if l := c.segment(p); l.cursor == nil || p.stamp < l.cursor.stamp {
				l.cursor = p
			}
		}
	}
	if evicted && c.OnEvict != nil {
		c.OnEvict(e)
	}
	*e = Entry{next: c.free, ref: e.ref}
	c.free = e
}

// Remove explicitly discards an entry (e.g. after migrating a subtree
// away). It fails if the entry is pinned by cached children.
func (c *Cache) Remove(id namespace.InodeID) error {
	e := c.lookup(id)
	if e == nil {
		return nil
	}
	if e.pins > 0 {
		return fmt.Errorf("cache: entry %s is pinned by %d children", e.Ino, e.pins)
	}
	c.drop(e, false)
	return nil
}

// under reports whether e caches root or something below it.
func under(root *namespace.Inode, e *Entry) bool {
	return e.Ino == root || root.IsAncestorOf(e.Ino)
}

// unwind drops the entries collected in c.scratch, children before
// parents so pins release, and returns how many went; an entry pinned
// from outside the set stays. A dropped entry leaves the buffer in the
// same pass, so a recycled entry is never read.
func (c *Cache) unwind() int {
	rest := c.scratch
	for progress := true; progress; {
		keep := rest[:0]
		for _, e := range rest {
			if e.pins == 0 {
				c.drop(e, false)
			} else {
				keep = append(keep, e)
			}
		}
		progress = len(keep) < len(rest)
		rest = keep
	}
	removed := len(c.scratch) - len(rest)
	clear(c.scratch)
	c.scratch = c.scratch[:0]
	return removed
}

// RemoveSubtree discards every cached entry at or below root. Returns
// the number removed.
func (c *Cache) RemoveSubtree(root *namespace.Inode) int {
	c.ForEachUnder(root, func(e *Entry) { c.scratch = append(c.scratch, e) })
	return c.unwind()
}

// CountUnder returns the number of entries at or below root.
func (c *Cache) CountUnder(root *namespace.Inode) int {
	n := 0
	c.ForEachUnder(root, func(*Entry) { n++ })
	return n
}

// ForEachUnder visits the entries at or below root in ForEach's order
// (hot then warm, MRU first). The callback must not mutate the cache.
func (c *Cache) ForEachUnder(root *namespace.Inode, fn func(*Entry)) {
	c.forEach(func(e *Entry) {
		if under(root, e) {
			fn(e)
		}
	})
}

// Clear discards every entry at once, with no eviction notifications:
// crash semantics — the node's volatile memory is lost, not evicted.
// fn, when non-nil, is called once per entry before the wipe (e.g. to
// shed per-inode bookkeeping naming this node). Returns the number of
// entries discarded.
func (c *Cache) Clear(fn func(*Entry)) int {
	c.forEach(func(e *Entry) {
		if fn != nil {
			fn(e)
		}
		c.scratch = append(c.scratch, e)
	})
	return c.unwind()
}

// ForEach visits every entry in LRU-segment order (hot then warm, MRU
// first). The callback must not mutate the cache.
func (c *Cache) ForEach(fn func(*Entry)) { c.forEach(fn) }

// NoteMiss records a demand lookup that found its record absent.
// Callers that probe with Contains (to run their own fetch path) use
// this to keep hit-rate accounting truthful.
func (c *Cache) NoteMiss() { c.Stats.Misses++ }

// CheckInvariants validates pin counts, segment membership, the
// cached-subset-is-a-tree property, each segment's stamps and cursor,
// that no live entry is on the free list, and the index's page
// accounting. simfsck runs it on every node at every checkpoint, so it
// tallies in two slices indexed by ref, not in maps.
func (c *Cache) CheckInvariants() error {
	refs := (c.made + 1) << entryBits
	pins, live := make([]int32, refs), make([]bool, refs)
	var err error
	c.forEach(func(e *Entry) {
		if err != nil {
			return
		}
		if r := int(e.ref); r >= refs || c.entry(e.ref) != e {
			err = fmt.Errorf("cache: %s has ref %d, which does not name it", e.Ino, r)
			return
		}
		live[e.ref] = true
		if e.detached {
			if e.parent != nil {
				err = fmt.Errorf("cache: detached %s holds a pin", e.Ino)
			}
			return
		}
		if e.parent != nil {
			if got := c.lookup(e.parent.Ino.ID); got != e.parent {
				err = fmt.Errorf("cache: %s pins an entry not in the cache", e.Ino)
				return
			}
			pins[e.parent.ref]++
		}
	})
	if err != nil {
		return err
	}
	pinned := 0
	c.forEach(func(e *Entry) {
		if want := pins[e.ref]; err == nil && int32(e.pins) != want {
			err = fmt.Errorf("cache: %s pin count %d, want %d", e.Ino, e.pins, want)
		} else if err == nil && c.lookup(e.Ino.ID) != e {
			err = fmt.Errorf("cache: the index does not find %s", e.Ino)
		}
		if e.pins > 0 {
			pinned++
		}
	})
	if err != nil {
		return err
	}
	if c.pinned != pinned {
		return fmt.Errorf("cache: pinned counter %d, want %d", c.pinned, pinned)
	}
	for f := c.free; f != nil; f = f.next {
		if live[f.ref] {
			return fmt.Errorf("cache: live entry %s on the free list", f.Ino)
		}
	}
	count := 0
	for _, l := range [...]*list{&c.hot, &c.warm} {
		stamp, beyond := l.stamp+1, l.cursor == nil
		for e := l.head; e != nil; e = e.next {
			if e.hot != (l == &c.hot) {
				return fmt.Errorf("cache: %s linked on the wrong segment", e.Ino)
			}
			if e.stamp >= stamp {
				return fmt.Errorf("cache: %s stamp %d not below its head-ward neighbour's %d", e.Ino, e.stamp, stamp)
			}
			if beyond && e.pins == 0 {
				return fmt.Errorf("cache: unpinned %s tail-ward of the scan cursor", e.Ino)
			}
			stamp, beyond = e.stamp, beyond || e == l.cursor
			count++
		}
		if !beyond {
			return fmt.Errorf("cache: scan cursor not on its segment")
		}
	}
	if count != c.n {
		return fmt.Errorf("cache: list count %d != table count %d", count, c.n)
	}
	total := 0
	for _, n := range c.classCount {
		total += n
	}
	if total != c.n {
		return fmt.Errorf("cache: class counts %v != size %d", c.classCount, c.n)
	}
	// The index holds the live entries (lookup found each) and nothing
	// else: a listed page counts its non-zero slots, at least one, and
	// the counts sum to Len; page 0 and every spare page are all-zero.
	held := 0
	for i, k := range c.dir {
		if k == 0 {
			continue
		}
		p := c.page(k)
		n := uint16(0)
		for _, r := range p.slots {
			if r != 0 {
				n++
			}
		}
		if n == 0 || p.live != n {
			return fmt.Errorf("cache: index page %d counts %d entries, holds %d", i, p.live, n)
		}
		held += int(n)
	}
	if held != c.n {
		return fmt.Errorf("cache: index pages hold %d entries, size %d", held, c.n)
	}
	if c.blocksMade > 0 && *c.page(0) != (page{}) {
		return fmt.Errorf("cache: page 0 was written")
	}
	for k, seen := c.spare, 0; k != 0; k, seen = c.page(k).next, seen+1 {
		if seen == c.blocksMade*pageBlock {
			return fmt.Errorf("cache: the spare pages form a cycle")
		}
		if p := c.page(k); p.live != 0 || p.slots != [pageSlots]ref{} {
			return fmt.Errorf("cache: spare page %d holds %d entries", k, p.live)
		}
	}
	return nil
}
