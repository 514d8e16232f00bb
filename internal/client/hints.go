package client

import (
	"math/bits"
	"slices"
	"strconv"

	"dynmds/internal/msg"
	"dynmds/internal/namespace"
)

// HintTable is the location-knowledge cache for a whole client
// population. A client learns the distribution only from replies (§4.4),
// so one that has not been answered yet owns no slots: a client holds
// at most one 4-byte word, and is handed a record from fixed-size chunks
// of records on its first Put. Which record it gets is layout, not
// state — it never influences an answer. Inside a record it is open
// addressing with a bounded probe window. Compared to the per-client
// map+FIFO it replaces, it has no per-entry allocation, no map header
// per client, and a deterministic eviction rule (overwrite the key's
// home slot when the probe window is full) — the FIFO ring's stale-slot
// interaction between del and eviction is structurally impossible
// because deletion clears the exact slot.
//
// Words are sparse: a bitmap says which clients hold one, a rank per
// 64-client block counts the words held before the block, and the words
// themselves are dense in ascending client order. An uncounted
// (closed-loop) table gives every client a word at construction. A
// counted one (the open-loop population) gives a client a word only
// when an arming pass says so (arm), and every client without one has
// drawn the same number of times: the shared count.
//
// A client's word holds its RNG draw count until it is first answered
// (0 in an uncounted table, which keeps no counts); after that it holds
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

	clients int
	live    []uint64 // per client, a bit: it holds a word
	rank    []uint32 // per 64-client block: words held by the clients before it
	word    []uint32 // per live client, ascending: draw count, or hintRecord|record number
	shared  uint32   // the draw count of every client without a word

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
// open-loop population) and gives words only to the clients an arming
// pass names; otherwise every client holds a word and records hold
// slots only. The first chunk is allocated here, so a one-client table
// is complete at construction.
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
	blocks := (clients + 63) / 64
	t := &HintTable{ways: w, probe: min(w, 4), clients: clients,
		live: make([]uint64, blocks), rank: make([]uint32, blocks)}
	if counted {
		t.head = 1
	} else {
		t.fill()
	}
	t.stride = t.head + w + w/2
	if w < hintChunkSlots {
		t.shift = uint32(bits.TrailingZeros32(hintChunkSlots / w))
	}
	t.addChunk()
	return t
}

// fill gives every client a word holding the shared count: an uncounted
// table at construction, a restore before it reads the counts.
func (t *HintTable) fill() {
	if cap(t.word) < t.clients {
		t.word = make([]uint32, t.clients)
	}
	t.word = t.word[:t.clients]
	for i := range t.word {
		t.word[i] = t.shared
	}
	for b := range t.live {
		t.live[b], t.rank[b] = ^uint64(0), uint32(b)<<6
	}
	if r := t.clients & 63; r != 0 {
		t.live[len(t.live)-1] = 1<<r - 1
	}
}

// reserve makes room for k words, so arming passes that give no more
// clients a word allocate nothing.
func (t *HintTable) reserve(k int) { t.word = slices.Grow(t.word, k-len(t.word)) }

// slot returns the index of client's word, or -1 if it holds none.
func (t *HintTable) slot(client int) int {
	b, bit := client>>6, uint64(1)<<(client&63)
	m := t.live[b]
	if m&bit == 0 {
		return -1
	}
	return int(t.rank[b]) + bits.OnesCount64(m&(bit-1))
}

// An arming is one pass over a counted table's clients in ascending
// order (Population.armAll), the one place a client gains a word: each
// client is visited with next, and one without a word gains it with
// gain. The words held are moved to the tail of the array's capacity
// first, so the merged array is written in place ahead of the words
// still to be read; it grows only if more clients gain a word than
// the capacity has room for.
type arming struct {
	t        *HintTable
	src, dst int // next word to read, next to write
}

// arm starts an arming pass.
func (t *HintTable) arm() arming {
	n := len(t.word)
	t.word = t.word[:cap(t.word)]
	src := len(t.word) - n
	copy(t.word[src:], t.word[:n])
	return arming{t: t, src: src}
}

// next visits client, the one after the last visited: it returns the
// index of its word in the merged array, or -1 if it holds none.
func (a *arming) next(client int) int {
	t := a.t
	b := client >> 6
	if client&63 == 0 {
		t.rank[b] = uint32(a.dst)
	}
	if t.live[b]>>(client&63)&1 == 0 {
		return -1
	}
	t.word[a.dst] = t.word[a.src]
	a.src++
	a.dst++
	return a.dst - 1
}

// gain gives client, just visited without a word, one, and returns its
// index.
func (a *arming) gain(client int) int {
	t := a.t
	if a.dst == a.src {
		rest := len(t.word) - a.src
		w := make([]uint32, min(t.clients, max(2*len(t.word), 1024)))
		copy(w, t.word[:a.dst])
		a.src = len(w) - rest
		copy(w[a.src:], t.word[len(t.word)-rest:])
		t.word = w
	}
	t.live[client>>6] |= 1 << (client & 63)
	a.dst++
	return a.dst - 1
}

// done ends the pass, in which every client without a word drew once.
func (a *arming) done() {
	a.t.word = a.t.word[:a.dst]
	a.t.shared++
}

// settle ends a restore, which gave every client a word: the shared
// count becomes the least count any client holds, and only a client
// whose count differs from it, or that holds a record, keeps its word.
// The array keeps the capacity for reserved words, and no more than
// the words kept need beyond that.
func (t *HintTable) settle(reserved int) {
	t.shared = maxDraws
	for _, w := range t.word {
		if rec := t.recordOf(w); rec != nil {
			w = rec[0]
		}
		t.shared = min(t.shared, w)
	}
	src, dst := 0, 0
	for b, m := range t.live {
		t.rank[b] = uint32(dst)
		for rest := m; rest != 0; rest &= rest - 1 {
			w := t.word[src]
			src++
			if w == t.shared {
				m &^= rest & -rest
				continue
			}
			t.word[dst] = w
			dst++
		}
		t.live[b] = m
	}
	t.word = t.word[:dst]
	if k := max(reserved, dst); cap(t.word) > k {
		t.word = append(make([]uint32, 0, k), t.word...)
	}
}

// addChunk appends the next chunk, cut short when fewer clients than a
// full chunk's records remain without one.
func (t *HintTable) addChunk() {
	n := max(0, min(1<<t.shift, t.clients-len(t.chunks)<<t.shift))
	t.chunks = append(t.chunks, make([]uint32, n*int(t.stride)))
}

// FootprintBytes returns the table's size in bytes: the bitmap and
// ranks, the words reserved or held, and the chunks allocated so far.
// It grows as clients are first answered and never shrinks.
func (t *HintTable) FootprintBytes() int64 {
	b := int64(len(t.live))*8 + int64(len(t.rank))*4 + int64(cap(t.word))*4
	for _, c := range t.chunks {
		b += int64(len(c)) * 4
	}
	return b
}

// record returns client's record, or nil if it has none yet.
func (t *HintTable) record(client int) []uint32 {
	if i := t.slot(client); i >= 0 {
		return t.recordOf(t.word[i])
	}
	return nil
}

// count returns the draw count in the word at index i of a counted
// table, and the record that holds it (nil: the word does).
func (t *HintTable) count(i int) (uint32, []uint32) {
	w := t.word[i]
	if rec := t.recordOf(w); rec != nil {
		return rec[0], rec
	}
	return w, nil
}

// recordOf returns the record a word names, or nil if it holds a count.
func (t *HintTable) recordOf(w uint32) []uint32 {
	if w&hintRecord == 0 {
		return nil
	}
	r := w &^ hintRecord
	off := (r & (1<<t.shift - 1)) * t.stride
	return t.chunks[r>>t.shift][off : off+t.stride : off+t.stride]
}

// claim returns client's record, handing it the next unused one first if
// it has none; a counted table moves the client's draw count into it.
// The client must hold a word.
func (t *HintTable) claim(client int) []uint32 {
	i := t.slot(client)
	if i < 0 {
		panic(noWord(client, "claims a hint record"))
	}
	w := t.word[i]
	if rec := t.recordOf(w); rec != nil {
		return rec
	}
	if int(t.used>>t.shift) == len(t.chunks) {
		t.addChunk()
	}
	t.word[i] = hintRecord | t.used
	t.used++
	rec := t.recordOf(t.word[i])
	if t.head == 1 {
		rec[0] = w
	}
	return rec
}

// noWord is the panic of a client that reaches what only a client
// holding a word may do.
func noWord(client int, what string) string {
	return "client: client " + strconv.Itoa(client) + " " + what + " without a hint-table word"
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
