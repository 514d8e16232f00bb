package client

import (
	"math/bits"

	"dynmds/internal/msg"
	"dynmds/internal/namespace"
)

// HintTable is the location-knowledge cache for a whole client
// population. A client learns the distribution only from replies (§4.4),
// so one that has not been answered yet owns no slots: the table is a
// 4-byte region index per client over fixed-size chunks of 8-byte
// slots, and a client is handed a region of W ways on its first Put.
// Which region it gets is layout, not state — it never influences an
// answer. Regions come from one arena per stripe (client mod stripes),
// so the shards of a striped population, each the only writer of its
// own clients, never share allocator state. Inside a region it is open
// addressing with a bounded probe
// window. Compared to the per-client map+FIFO it replaces, it has no
// per-entry allocation, no map header per client, and a deterministic
// eviction rule (overwrite the key's home slot when the probe window is
// full) — the FIFO ring's stale-slot interaction between del and
// eviction is structurally impossible because deletion clears the exact
// slot.
//
// Each slot packs key|value: key is uint32(ino)+1 (0 marks an empty
// slot; generated trees stay far below 2^32 inodes, enforced on Put),
// the value is the authority id with the replicated bit on top.
type HintTable struct {
	ways  uint32 // slots per client, power of two
	probe uint32 // probe window, min(ways, 4)
	shift uint32 // log2(regions per chunk)

	region []uint32 // per client: 1 + region number in its arena, 0 = none yet
	arenas []hintArena
}

// hintArena allocates the regions of the clients of one stripe.
type hintArena struct {
	chunks [][]uint64 // blocks of 1<<shift regions; never copied or regrown
	used   uint32     // regions handed out so far
}

const (
	hintReplicated = 1 << 31
	// hintChunkSlots is the chunk size in slots (64 KB), unless one
	// region is larger. Fixed rather than doubling, so a run that keeps
	// meeting new clients allocates each slot exactly once.
	hintChunkSlots = 8192
	// maxHintKey is the first inode id the 32-bit slot key cannot hold.
	maxHintKey = 1<<32 - 1
)

// NewHintTable builds a table for the given number of clients with ways
// slots each (rounded up to a power of two, minimum 2), allocating from
// stripes independent arenas. Every arena's first chunk is allocated
// here, so a one-client table is complete at construction.
func NewHintTable(clients, ways, stripes int) *HintTable {
	if clients < 1 {
		clients = 1
	}
	if stripes < 1 {
		panic("client: hint table with no stripes")
	}
	if ways < 2 {
		ways = 2
	}
	if ways > 1<<20 {
		panic("client: hint table with more than 1<<20 ways per client")
	}
	w := uint32(1) << uint(bits.Len32(uint32(ways-1)))
	t := &HintTable{ways: w, probe: min(w, 4), region: make([]uint32, clients), arenas: make([]hintArena, stripes)}
	if w < hintChunkSlots {
		t.shift = uint32(bits.TrailingZeros32(hintChunkSlots / w))
	}
	for s := range t.arenas {
		t.addChunk(s)
	}
	return t
}

// addChunk appends arena s's next chunk, cut short when fewer of the
// stripe's clients than a full chunk's regions remain without one.
func (t *HintTable) addChunk(s int) {
	a, k := &t.arenas[s], len(t.arenas)
	clients := (len(t.region) - s + k - 1) / k
	n := max(0, min(1<<t.shift, clients-len(a.chunks)<<t.shift))
	a.chunks = append(a.chunks, make([]uint64, n*int(t.ways)))
}

// Ways returns the per-client slot count.
func (t *HintTable) Ways() int { return int(t.ways) }

// FootprintBytes returns the table's size in bytes: the 4-byte region
// index for every client plus the chunks allocated so far. It grows as
// clients are first answered and never shrinks.
func (t *HintTable) FootprintBytes() int64 {
	b := int64(len(t.region)) * 4
	for _, a := range t.arenas {
		for _, c := range a.chunks {
			b += int64(len(c)) * 8
		}
	}
	return b
}

// slots returns client's region, or nil if it has none yet.
func (t *HintTable) slots(client int) []uint64 {
	r := t.region[client]
	if r == 0 {
		return nil
	}
	r--
	off := (r & (1<<t.shift - 1)) * t.ways
	return t.arenas[client%len(t.arenas)].chunks[r>>t.shift][off : off+t.ways]
}

// claim returns client's region, handing it the next unused one first
// if it has none.
func (t *HintTable) claim(client int) []uint64 {
	if t.region[client] == 0 {
		s := client % len(t.arenas)
		a := &t.arenas[s]
		if int(a.used>>t.shift) == len(a.chunks) {
			t.addChunk(s)
		}
		a.used++
		t.region[client] = a.used
	}
	return t.slots(client)
}

// home returns the key's preferred slot offset within a client region.
func (t *HintTable) home(key uint32) uint32 {
	return uint32((uint64(key)*0x9E3779B97F4A7C15)>>40) & (t.ways - 1)
}

// Get looks up the hint for ino in client's region.
func (t *HintTable) Get(client int, ino namespace.InodeID) (authority int, replicated, ok bool) {
	return t.get(t.slots(client), ino)
}

// get is Get on an already resolved region (nil: no hints at all), so a
// walk up an ancestor chain resolves the region once.
func (t *HintTable) get(reg []uint64, ino namespace.InodeID) (authority int, replicated, ok bool) {
	if reg == nil || ino >= maxHintKey {
		return 0, false, false
	}
	key := uint32(ino) + 1
	start := t.home(key)
	for j := uint32(0); j < t.probe; j++ {
		s := reg[(start+j)&(t.ways-1)]
		if uint32(s) == key {
			v := uint32(s >> 32)
			return int(v &^ hintReplicated), v&hintReplicated != 0, true
		}
	}
	return 0, false, false
}

// Put records a hint in client's region, handing it one on its first
// hint: refresh in place on a key match, fill the first empty slot in
// the probe window, or — window full — overwrite the key's home slot
// (deterministic eviction).
func (t *HintTable) Put(client int, h msg.Hint) { t.put(t.claim(client), h) }

// put is Put on an already claimed region, so a reply's hints claim once.
func (t *HintTable) put(reg []uint64, h msg.Hint) {
	if h.Ino >= maxHintKey {
		panic("client: inode id exceeds hint-table key range")
	}
	key := uint32(h.Ino) + 1
	v := uint32(h.Authority)
	if h.Replicated {
		v |= hintReplicated
	}
	packed := uint64(v)<<32 | uint64(key)
	start := t.home(key)
	empty := -1
	for j := uint32(0); j < t.probe; j++ {
		idx := int((start + j) & (t.ways - 1))
		s := reg[idx]
		if uint32(s) == key {
			reg[idx] = packed
			return
		}
		if s == 0 && empty < 0 {
			empty = idx
		}
	}
	if empty >= 0 {
		reg[empty] = packed
		return
	}
	reg[start] = packed
}

// Del invalidates the hint for ino, if present: the exact slot is
// cleared, so no stale residue can ever interact with later evictions.
func (t *HintTable) Del(client int, ino namespace.InodeID) {
	reg := t.slots(client)
	if reg == nil || ino >= maxHintKey {
		return
	}
	key := uint32(ino) + 1
	start := t.home(key)
	for j := uint32(0); j < t.probe; j++ {
		idx := (start + j) & (t.ways - 1)
		if uint32(reg[idx]) == key {
			reg[idx] = 0
			return
		}
	}
}

// Len counts occupied slots in client's region (tests and figures; not
// a hot path).
func (t *HintTable) Len(client int) int {
	n := 0
	for _, s := range t.slots(client) {
		if s != 0 {
			n++
		}
	}
	return n
}
