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
	// evicted (leaf-only expiry).
	pins  int32
	Class Class
	hot   bool
	// detached entries (Lazy Hybrid) do not participate in the
	// hierarchical pinning protocol: LH's dual-entry ACLs remove the
	// need to keep ancestors cached.
	detached bool
}

// Pinned reports whether the entry is protected from eviction.
func (e *Entry) Pinned() bool { return e.pins > 0 }

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
	Hits, Misses     uint64
	Inserts, Evicts  uint64
	PinBlockedEvicts uint64
}

// Cache is a bounded, segmented-LRU metadata cache.
type Cache struct {
	capacity int
	// byID is a direct-indexed presence table: InodeIDs are allocated
	// sequentially and never reused, so index = ID. One pointer per ID
	// ever seen costs a few MB per node at simulation scale and turns
	// the hottest operation in the whole simulator — "is this record
	// cached?" on every path component of every request — from a map
	// probe into an array load.
	byID []*Entry
	n    int
	hot  list
	warm list

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
}

// New creates a cache bounded to capacity entries. Capacity must be
// positive.
func New(capacity int) *Cache {
	if capacity < 1 {
		panic("cache: capacity must be >= 1")
	}
	return &Cache{capacity: capacity}
}

// NewSized is New for a namespace whose highest inode ID so far is
// known: the presence table starts at the size storing the next ID would
// grow it to, so it is not regrown while the cache warms up.
func NewSized(capacity int, maxID namespace.InodeID) *Cache {
	c := New(capacity)
	c.byID = make([]*Entry, 2*int(maxID)+1)
	return c
}

// lookup returns the entry for id, or nil.
func (c *Cache) lookup(id namespace.InodeID) *Entry {
	if uint64(id) < uint64(len(c.byID)) {
		return c.byID[id]
	}
	return nil
}

// store records the entry for id, growing the table as the ID space
// grows (IDs are monotonically allocated, so growth is rare and the
// doubling headroom amortizes it away).
func (c *Cache) store(id namespace.InodeID, e *Entry) {
	if uint64(id) >= uint64(len(c.byID)) {
		grown := make([]*Entry, 2*int(id)+1)
		copy(grown, c.byID)
		c.byID = grown
	}
	c.byID[id] = e
	c.n++
}

func (c *Cache) erase(id namespace.InodeID) {
	c.byID[id] = nil
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

// Cap returns the configured capacity.
func (c *Cache) Cap() int { return c.capacity }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.n }

// CountClass returns the number of entries with the given class.
func (c *Cache) CountClass(cl Class) int { return c.classCount[cl] }

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
	return c.lookup(id) != nil
}

// Peek returns the entry without touching LRU state or stats.
func (c *Cache) Peek(id namespace.InodeID) (*Entry, bool) {
	e := c.lookup(id)
	return e, e != nil
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
	c.segment(e).remove(e)
	e.hot = true
	c.hot.pushFront(e)
}

// Insert adds (or refreshes) an entry for ino. warm selects the
// prefetch segment. The entry's parent must already be cached unless ino
// is the root — that is the hierarchical-consistency invariant; callers
// use InsertPath to bring in the ancestor chain. Inserting may evict
// unpinned entries to stay within capacity.
func (c *Cache) Insert(ino *namespace.Inode, cl Class, warm bool) (*Entry, error) {
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
	parent := ino.Parent()
	var pe *Entry
	if parent != nil {
		pe = c.lookup(parent.ID)
		if pe == nil {
			return nil, fmt.Errorf("cache: inserting %s without cached parent", ino)
		}
	}
	return c.add(ino, cl, warm, pe, false), nil
}

// entryChunk is how many entries one refill of an empty free list
// allocates. Entries are recycled for the life of the cache, so a chunk
// is never partly dead, and a cache growing to capacity makes one
// allocation per 64 inserts.
const entryChunk = 64

// add links a new entry for ino, pinning pe, and evicts down to
// capacity. It takes the Entry from the free list, refilled when empty.
func (c *Cache) add(ino *namespace.Inode, cl Class, warm bool, pe *Entry, detached bool) *Entry {
	if c.free == nil {
		chunk := make([]Entry, entryChunk)
		for i := range chunk[:entryChunk-1] {
			chunk[i].next = &chunk[i+1]
		}
		c.free = &chunk[0]
	}
	e := c.free
	c.free, e.next = e.next, nil
	e.Ino, e.Class, e.hot, e.parent, e.detached = ino, cl, !warm, pe, detached
	c.store(ino.ID, e)
	c.classCount[cl]++
	if pe != nil {
		if pe.pins++; pe.pins == 1 {
			c.pinned++
		}
	}
	c.segment(e).pushFront(e)
	c.Stats.Inserts++
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
	// The parent chain, nearest first, in a stack buffer: append moves
	// it to the heap only for a path deeper than the buffer.
	var buf [32]*namespace.Inode
	chain, missing := buf[:0], false
	for anc := ino.Parent(); anc != nil; anc = anc.Parent() {
		chain = append(chain, anc)
		missing = missing || !c.Contains(anc.ID)
	}
	if !missing {
		return c.Insert(ino, cl, warm)
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
			c.Stats.PinBlockedEvicts++
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
	if evicted {
		c.Stats.Evicts++
		if c.OnEvict != nil {
			c.OnEvict(e)
		}
	}
	*e = Entry{next: c.free}
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
	c.forEach(func(e *Entry) {
		if under(root, e) {
			c.scratch = append(c.scratch, e)
		}
	})
	return c.unwind()
}

// CountUnder returns the number of entries at or below root.
func (c *Cache) CountUnder(root *namespace.Inode) int {
	n := 0
	c.forEach(func(e *Entry) {
		if under(root, e) {
			n++
		}
	})
	return n
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

// EntriesUnder collects the entries at or below root, in the same
// deterministic order ForEach uses.
func (c *Cache) EntriesUnder(root *namespace.Inode) []*Entry {
	var out []*Entry
	c.forEach(func(e *Entry) {
		if under(root, e) {
			out = append(out, e)
		}
	})
	return out
}

// NoteMiss records a demand lookup that found its record absent.
// Callers that probe with Contains (to run their own fetch path) use
// this to keep hit-rate accounting truthful.
func (c *Cache) NoteMiss() { c.Stats.Misses++ }

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (c *Cache) HitRate() float64 {
	total := c.Stats.Hits + c.Stats.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Stats.Hits) / float64(total)
}

// CheckInvariants validates pin counts, segment membership, the
// cached-subset-is-a-tree property, each segment's stamps and cursor,
// and that no live entry is on the free list. For tests.
func (c *Cache) CheckInvariants() error {
	pins := make(map[*Entry]int32)
	live := make(map[*Entry]bool)
	var err error
	c.forEach(func(e *Entry) {
		live[e] = true
		if err != nil {
			return
		}
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
			pins[e.parent]++
		}
	})
	if err != nil {
		return err
	}
	c.forEach(func(e *Entry) {
		if err == nil && e.pins != pins[e] {
			err = fmt.Errorf("cache: %s pin count %d, want %d", e.Ino, e.pins, pins[e])
		}
	})
	if err != nil {
		return err
	}
	if c.pinned != len(pins) {
		return fmt.Errorf("cache: pinned counter %d, want %d", c.pinned, len(pins))
	}
	for f := c.free; f != nil; f = f.next {
		if live[f] {
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
	return nil
}
