package client

import (
	"math/bits"

	"dynmds/internal/msg"
	"dynmds/internal/namespace"
)

// HintTable is the location-knowledge cache for a whole client
// population. A client learns the distribution only from replies (§4.4),
// so one that has not been answered yet owns no slots: the table is one
// 4-byte word per client over fixed-size chunks of records, and a client
// is handed a record on its first Put. Which record it gets is layout,
// not state — it never influences an answer. Inside a record it is open
// addressing with a bounded probe window. Compared to the per-client
// map+FIFO it replaces, it has no per-entry allocation, no map header
// per client, and a deterministic eviction rule (overwrite the key's
// home slot when the probe window is full) — the FIFO ring's stale-slot
// interaction between del and eviction is structurally impossible
// because deletion clears the exact slot.
//
// A client's word is shared with the open-loop population: until the
// client is first answered it holds the client's RNG draw count (0 in a
// closed-loop table, which keeps no counts); after that it holds
// hintRecord|record number, and a counted table's record carries the
// count in its first word. A record is then the ways slot keys — 32
// bits each, uint32(ino)+1, 0 marking an empty slot (generated trees
// stay far below 2^32 inodes, enforced on Put) — followed by their
// 16-bit values, two to a word: the authority in the low 15 bits, the
// replicated bit on top. So a record is 1 + ways + ways/2 words
// counted, ways + ways/2 words not.
type HintTable struct {
	ways   uint32 // slots per client, power of two
	probe  uint32 // probe window, min(ways, 4)
	shift  uint32 // log2(records per chunk)
	head   uint32 // words before a record's keys: 1 (the draw count) counted, 0 not
	stride uint32 // words per record

	word   []uint32   // per client: draw count, or hintRecord|record number
	chunks [][]uint32 // blocks of 1<<shift records; never copied or regrown
	used   uint32     // records handed out so far
}

const (
	// hintRecord flags a client word that names a record rather than
	// holding a draw count, so a count must stay below it.
	hintRecord = 1 << 31
	// MaxHintMDS is the largest cluster a hint value can name: 15 bits
	// of authority beside the replicated bit.
	MaxHintMDS = 1 << 15
	// hintReplicated is the replicated bit of a 16-bit slot value.
	hintReplicated = 1 << 15
	// snapReplicated is the replicated bit of a slot's checkpoint form,
	// key in the low word, authority in the high one (see snap).
	snapReplicated = 1 << 31
	// hintChunkSlots sizes a chunk: the records of this many slots,
	// unless one record is larger. Fixed rather than doubling, so a run
	// that keeps meeting new clients allocates each record exactly once.
	hintChunkSlots = 8192
	// maxHintKey is the first inode id the 32-bit slot key cannot hold.
	maxHintKey = 1<<32 - 1
)

// NewHintTable builds a table for the given number of clients with ways
// slots each (rounded up to a power of two, minimum 2). A counted table
// moves a client's draw count into its record when it claims one (the
// open-loop population); otherwise records hold slots only. The first
// chunk is allocated here, so a one-client table is complete at
// construction.
func NewHintTable(clients, ways int, counted bool) *HintTable {
	if clients < 1 {
		clients = 1
	}
	if ways < 2 {
		ways = 2
	}
	if ways > 1<<20 {
		panic("client: hint table with more than 1<<20 ways per client")
	}
	w := uint32(1) << uint(bits.Len32(uint32(ways-1)))
	t := &HintTable{ways: w, probe: min(w, 4), word: make([]uint32, clients)}
	if counted {
		t.head = 1
	}
	t.stride = t.head + w + w/2
	if w < hintChunkSlots {
		t.shift = uint32(bits.TrailingZeros32(hintChunkSlots / w))
	}
	t.addChunk()
	return t
}

// addChunk appends the next chunk, cut short when fewer clients than a
// full chunk's records remain without one.
func (t *HintTable) addChunk() {
	n := max(0, min(1<<t.shift, len(t.word)-len(t.chunks)<<t.shift))
	t.chunks = append(t.chunks, make([]uint32, n*int(t.stride)))
}

// FootprintBytes returns the table's size in bytes: the 4-byte word for
// every client plus the chunks allocated so far. It grows as clients
// are first answered and never shrinks.
func (t *HintTable) FootprintBytes() int64 {
	b := int64(len(t.word)) * 4
	for _, c := range t.chunks {
		b += int64(len(c)) * 4
	}
	return b
}

// record returns client's record, or nil if it has none yet.
func (t *HintTable) record(client int) []uint32 {
	w := t.word[client]
	if w&hintRecord == 0 {
		return nil
	}
	r := w &^ hintRecord
	off := (r & (1<<t.shift - 1)) * t.stride
	return t.chunks[r>>t.shift][off : off+t.stride : off+t.stride]
}

// claim returns client's record, handing it the next unused one first if
// it has none; a counted table moves the client's draw count into it.
func (t *HintTable) claim(client int) []uint32 {
	w := t.word[client]
	if w&hintRecord != 0 {
		return t.record(client)
	}
	if int(t.used>>t.shift) == len(t.chunks) {
		t.addChunk()
	}
	t.word[client] = hintRecord | t.used
	t.used++
	rec := t.record(client)
	if t.head == 1 {
		rec[0] = w
	}
	return rec
}

// home returns the key's preferred slot within a client record.
func (t *HintTable) home(key uint32) uint32 {
	return uint32((uint64(key)*0x9E3779B97F4A7C15)>>40) & (t.ways - 1)
}

// value returns slot j's 16-bit value in rec.
func (t *HintTable) value(rec []uint32, j uint32) uint32 {
	return rec[t.head+t.ways+j>>1] >> (j & 1 * 16) & 0xFFFF
}

// set stores key and its 16-bit value v in slot j of rec.
func (t *HintTable) set(rec []uint32, j, key, v uint32) {
	rec[t.head+j] = key
	i, sh := t.head+t.ways+j>>1, j&1*16
	rec[i] = rec[i]&^(0xFFFF<<sh) | v<<sh
}

// get looks up the hint for ino in an already resolved client record
// (nil: no hints at all), so a walk up an ancestor chain resolves the
// record once.
func (t *HintTable) get(rec []uint32, ino namespace.InodeID) (authority int, replicated, ok bool) {
	if rec == nil || ino >= maxHintKey {
		return 0, false, false
	}
	key := uint32(ino) + 1
	keys := rec[t.head : t.head+t.ways]
	start := t.home(key)
	for j := uint32(0); j < t.probe; j++ {
		if i := (start + j) & (t.ways - 1); keys[i] == key {
			v := t.value(rec, i)
			return int(v &^ hintReplicated), v&hintReplicated != 0, true
		}
	}
	return 0, false, false
}

// put records a hint in an already claimed client record, so a reply's
// hints claim once: refresh in place on a key match, fill the first
// empty slot in the probe window, or — window full — overwrite the
// key's home slot (deterministic eviction).
func (t *HintTable) put(rec []uint32, h msg.Hint) {
	if h.Ino >= maxHintKey {
		panic("client: inode id exceeds hint-table key range")
	}
	if uint(h.Authority) >= MaxHintMDS {
		panic("client: authority exceeds the hint value's 15 bits")
	}
	key := uint32(h.Ino) + 1
	v := uint32(h.Authority)
	if h.Replicated {
		v |= hintReplicated
	}
	keys := rec[t.head : t.head+t.ways]
	start := t.home(key)
	empty := t.ways // none yet
	for j := uint32(0); j < t.probe; j++ {
		i := (start + j) & (t.ways - 1)
		if keys[i] == key {
			t.set(rec, i, key, v)
			return
		}
		if keys[i] == 0 && empty == t.ways {
			empty = i
		}
	}
	if empty == t.ways {
		empty = start
	}
	t.set(rec, empty, key, v)
}

// Del invalidates the hint for ino, if present: the exact slot is
// cleared, so no stale residue can ever interact with later evictions.
func (t *HintTable) Del(client int, ino namespace.InodeID) {
	rec := t.record(client)
	if rec == nil || ino >= maxHintKey {
		return
	}
	key := uint32(ino) + 1
	start := t.home(key)
	for j := uint32(0); j < t.probe; j++ {
		if i := (start + j) & (t.ways - 1); rec[t.head+i] == key {
			t.set(rec, i, 0, 0)
			return
		}
	}
}

// Len counts occupied slots in client's record (tests and figures; not
// a hot path).
func (t *HintTable) Len(client int) int {
	n := 0
	if rec := t.record(client); rec != nil {
		for _, k := range rec[t.head : t.head+t.ways] {
			if k != 0 {
				n++
			}
		}
	}
	return n
}
