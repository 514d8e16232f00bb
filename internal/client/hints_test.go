package client

import (
	"bytes"
	"strings"
	"testing"

	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
	"dynmds/internal/snap"
)

// Get looks up the hint for ino in client's record.
func (t *HintTable) Get(client int, ino namespace.InodeID) (authority int, replicated, ok bool) {
	return t.get(t.record(client), ino)
}

// Put records a hint in client's record, handing it one on its first.
func (t *HintTable) Put(client int, h msg.Hint) { t.put(t.claim(client), h) }

// liveTable is a counted table whose every client holds a word, as after
// a restore has read the counts.
func liveTable(clients, ways int) *HintTable {
	t := NewHintTable(clients, ways, true)
	t.fill()
	return t
}

func TestHintTableRoundTrip(t *testing.T) {
	tab := NewHintTable(1, 8, false)
	tab.Put(0, msg.Hint{Ino: 42, Authority: 3})
	auth, repl, ok := tab.Get(0, 42)
	if !ok || auth != 3 || repl {
		t.Fatalf("Get(42) = %d,%v,%v", auth, repl, ok)
	}
	tab.Put(0, msg.Hint{Ino: 43, Authority: 7, Replicated: true})
	auth, repl, ok = tab.Get(0, 43)
	if !ok || auth != 7 || !repl {
		t.Fatalf("Get(43) = %d,%v,%v", auth, repl, ok)
	}
	if _, _, ok := tab.Get(0, 99); ok {
		t.Fatal("hit on absent key")
	}
}

func TestHintTableRefreshInPlace(t *testing.T) {
	tab := NewHintTable(1, 8, false)
	tab.Put(0, msg.Hint{Ino: 5, Authority: 1})
	tab.Put(0, msg.Hint{Ino: 5, Authority: 9})
	if auth, _, _ := tab.Get(0, 5); auth != 9 {
		t.Fatalf("refresh did not update: authority = %d", auth)
	}
	if tab.Len(0) != 1 {
		t.Fatalf("refresh grew region: len = %d", tab.Len(0))
	}
}

func TestHintTableBound(t *testing.T) {
	tab := NewHintTable(1, 4, false)
	if tab.ways != 4 {
		t.Fatalf("ways = %d", tab.ways)
	}
	for i := 0; i < 1000; i++ {
		tab.Put(0, msg.Hint{Ino: namespace.InodeID(i), Authority: i % 8})
	}
	if tab.Len(0) > 4 {
		t.Fatalf("region overflowed: len = %d", tab.Len(0))
	}
	// Non-power-of-two ways round up.
	if w := NewHintTable(1, 5, false).ways; w != 8 {
		t.Fatalf("ways(5) = %d, want 8", w)
	}
}

func TestHintTableDelClearsExactSlot(t *testing.T) {
	tab := NewHintTable(1, 8, false)
	tab.Put(0, msg.Hint{Ino: 10, Authority: 1})
	tab.Put(0, msg.Hint{Ino: 11, Authority: 2})
	tab.Del(0, 10)
	if _, _, ok := tab.Get(0, 10); ok {
		t.Fatal("deleted key still present")
	}
	if _, _, ok := tab.Get(0, 11); !ok {
		t.Fatal("delete clobbered an unrelated key")
	}
	// The FIFO-ring bug this table replaces: after a delete, a re-put of
	// the same key followed by heavy churn must never leave two live
	// entries or resurrect stale state.
	tab.Put(0, msg.Hint{Ino: 10, Authority: 5})
	for i := 100; i < 200; i++ {
		tab.Put(0, msg.Hint{Ino: namespace.InodeID(i), Authority: 0})
	}
	if auth, _, ok := tab.Get(0, 10); ok && auth != 5 {
		t.Fatalf("stale value resurrected: authority = %d", auth)
	}
	if tab.Len(0) > int(tab.ways) {
		t.Fatalf("region overflowed after churn: len = %d", tab.Len(0))
	}
}

func TestHintTablePerClientIsolation(t *testing.T) {
	tab := liveTable(4, 4)
	for c := 0; c < 4; c++ {
		tab.Put(c, msg.Hint{Ino: 7, Authority: c})
	}
	for c := 0; c < 4; c++ {
		auth, _, ok := tab.Get(c, 7)
		if !ok || auth != c {
			t.Fatalf("client %d: Get = %d,%v", c, auth, ok)
		}
	}
	tab.Del(2, 7)
	if _, _, ok := tab.Get(2, 7); ok {
		t.Fatal("delete did not clear client 2's entry")
	}
	for _, c := range []int{0, 1, 3} {
		if _, _, ok := tab.Get(c, 7); !ok {
			t.Fatalf("delete leaked into client %d", c)
		}
	}
}

func TestHintTableGetAllocFree(t *testing.T) {
	tab := liveTable(2, 8)
	tab.Put(0, msg.Hint{Ino: 1, Authority: 1})
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		a, _, _ := tab.Get(0, 1)
		sink += a
		tab.Put(1, msg.Hint{Ino: 2, Authority: 2})
		tab.Del(1, 2)
	})
	if allocs != 0 {
		t.Fatalf("Get/Put/Del allocate: %v allocs/op", allocs)
	}
	_ = sink
}

// denseHints is the layout HintTable replaced — ways zeroed slots for
// every client, silent or not — kept as the reference the region table
// must answer and serialise identically to.
type denseHints struct {
	ways, probe uint32
	slots       []uint64
}

func newDenseHints(clients, ways int) *denseHints {
	return &denseHints{ways: uint32(ways), probe: min(uint32(ways), 4), slots: make([]uint64, clients*ways)}
}

func (t *denseHints) home(key uint32) uint32 {
	return uint32((uint64(key)*0x9E3779B97F4A7C15)>>40) & (t.ways - 1)
}

func (t *denseHints) get(client int, ino namespace.InodeID) (int, bool, bool) {
	key := uint32(ino) + 1
	base := uint32(client) * t.ways
	start := t.home(key)
	for j := uint32(0); j < t.probe; j++ {
		s := t.slots[base+(start+j)&(t.ways-1)]
		if uint32(s) == key {
			v := uint32(s >> 32)
			return int(v &^ snapReplicated), v&snapReplicated != 0, true
		}
	}
	return 0, false, false
}

func (t *denseHints) put(client int, h msg.Hint) {
	key := uint32(h.Ino) + 1
	v := uint32(h.Authority)
	if h.Replicated {
		v |= snapReplicated
	}
	packed := uint64(v)<<32 | uint64(key)
	base := uint32(client) * t.ways
	start := t.home(key)
	empty := uint32(0xFFFFFFFF)
	for j := uint32(0); j < t.probe; j++ {
		idx := base + (start+j)&(t.ways-1)
		s := t.slots[idx]
		if uint32(s) == key {
			t.slots[idx] = packed
			return
		}
		if s == 0 && empty == 0xFFFFFFFF {
			empty = idx
		}
	}
	if empty != 0xFFFFFFFF {
		t.slots[empty] = packed
		return
	}
	t.slots[base+start] = packed
}

func (t *denseHints) del(client int, ino namespace.InodeID) {
	key := uint32(ino) + 1
	base := uint32(client) * t.ways
	start := t.home(key)
	for j := uint32(0); j < t.probe; j++ {
		idx := base + (start+j)&(t.ways-1)
		if uint32(t.slots[idx]) == key {
			t.slots[idx] = 0
			return
		}
	}
}

func (t *denseHints) len(client int) int {
	n := 0
	for _, s := range t.slots[client*int(t.ways) : (client+1)*int(t.ways)] {
		if s != 0 {
			n++
		}
	}
	return n
}

func (t *denseHints) snapshotTo(w *snap.Writer) {
	nz := 0
	for _, v := range t.slots {
		if v != 0 {
			nz++
		}
	}
	w.I64(int64(len(t.slots)))
	w.I64(int64(nz))
	for i, v := range t.slots {
		if v != 0 {
			w.I64(int64(i))
			w.U64(v)
		}
	}
}

// snapshot is the dense reference's checkpoint section as finished bytes.
func (t *denseHints) snapshot() []byte {
	w := snap.NewWriter()
	w.Begin("hints")
	t.snapshotTo(w)
	w.End()
	return w.Bytes()
}

// hintMDS is the cluster size the tests' checkpoints are read for.
const hintMDS = 64

// snapshot is the table's checkpoint section as finished bytes.
func (t *HintTable) snapshot() []byte {
	w := snap.NewWriter()
	snap.Encoder(w).Section("hints", func(c *snap.Codec) { t.snap(c, hintMDS) })
	return w.Bytes()
}

// restore reads a checkpoint section into t, a fresh table.
func (t *HintTable) restore(data []byte) error {
	r, err := snap.NewReader(data)
	if err != nil {
		return err
	}
	dec := snap.Decoder(r)
	dec.Section("hints", func(c *snap.Codec) { t.snap(c, hintMDS) })
	return dec.Err()
}

// TestHintTableDifferential drives the record table and the dense
// reference through the same seeded histories: every answer and every
// snapshot byte must agree, across a mid-history restore into a fresh
// table (which hands records out in client order, not first-Put order).
func TestHintTableDifferential(t *testing.T) {
	for _, ways := range []int{2, 4, 2048} {
		for _, clients := range []int{1, 10_000} {
			counted := clients > 1
			rng := sim.NewStream(int64(ways*clients), "hint-differential")
			newTable := func() *HintTable {
				t := NewHintTable(clients, ways, counted)
				t.fill()
				return t
			}
			tab, ref := newTable(), newDenseHints(clients, ways)
			// Few enough speakers and keys that probe windows fill and
			// regions are revisited; most clients stay silent.
			speakers, keys := min(clients, 300), 8*ways
			const steps = 60_000
			for step := 0; step < steps; step++ {
				c := rng.Pick(speakers) * (clients / speakers)
				ino := namespace.InodeID(rng.Pick(keys))
				switch op := rng.Pick(10); {
				case op < 5:
					h := msg.Hint{Ino: ino, Authority: rng.Pick(hintMDS), Replicated: rng.Pick(4) == 0}
					tab.Put(c, h)
					ref.put(c, h)
				case op < 8:
					a1, r1, ok1 := tab.Get(c, ino)
					a2, r2, ok2 := ref.get(c, ino)
					if a1 != a2 || r1 != r2 || ok1 != ok2 {
						t.Fatalf("ways %d clients %d step %d: Get(%d,%d) = %d,%v,%v, dense %d,%v,%v",
							ways, clients, step, c, ino, a1, r1, ok1, a2, r2, ok2)
					}
				case op < 9:
					tab.Del(c, ino)
					ref.del(c, ino)
				default:
					if tab.Len(c) != ref.len(c) {
						t.Fatalf("ways %d clients %d step %d: Len(%d) = %d, dense %d",
							ways, clients, step, c, tab.Len(c), ref.len(c))
					}
				}
				if step != steps/2 && step != steps-1 {
					continue
				}
				got, want := tab.snapshot(), ref.snapshot()
				if !bytes.Equal(got, want) {
					t.Fatalf("ways %d clients %d step %d: snapshot differs from the dense encoder's (%d vs %d bytes)",
						ways, clients, step, len(got), len(want))
				}
				tab = newTable()
				if err := tab.restore(got); err != nil {
					t.Fatal(err)
				}
				if again := tab.snapshot(); !bytes.Equal(again, want) {
					t.Fatalf("ways %d clients %d step %d: restored table re-encodes differently", ways, clients, step)
				}
			}
		}
	}
}

// TestHintTableNoAliasingPast32Bits: with 2^33 slots the dense layout's
// uint32 base (client*ways) wrapped, so clients 2^22 apart shared slots.
// Only the 32 MB of client words, their bitmap and ranks exist until
// someone speaks.
func TestHintTableNoAliasingPast32Bits(t *testing.T) {
	tab := NewHintTable(1<<23, 1024, false)
	tab.Put(0, msg.Hint{Ino: 7, Authority: 3})
	if _, _, ok := tab.Get(1<<22, 7); ok {
		t.Fatal("client 1<<22 sees client 0's hint")
	}
	tab.Put(1<<22, msg.Hint{Ino: 7, Authority: 5})
	if auth, _, ok := tab.Get(0, 7); !ok || auth != 3 {
		t.Fatalf("client 0's hint clobbered: %d,%v", auth, ok)
	}
	if got, want := tab.FootprintBytes(), int64(4<<23+1<<20+1<<19+6*hintChunkSlots); got != want {
		t.Fatalf("footprint = %d, want words, bitmap, ranks + one chunk = %d", got, want)
	}
}

func TestHintTableRejectsWideInodeIDs(t *testing.T) {
	tab := NewHintTable(1, 8, false)
	tab.Put(0, msg.Hint{Ino: 41, Authority: 1})
	wide := namespace.InodeID(1<<32 + 41) // truncates to 41's key
	if _, _, ok := tab.Get(0, wide); ok {
		t.Fatal("Get truncated a wide inode id onto another key")
	}
	tab.Del(0, wide)
	if _, _, ok := tab.Get(0, 41); !ok {
		t.Fatal("Del truncated a wide inode id onto another key")
	}
	tab.Del(0, 1<<32-1) // key 0 is the empty marker: must not match empty slots
	if tab.Len(0) != 1 {
		t.Fatalf("len = %d after no-op deletes", tab.Len(0))
	}
}

// TestHintTableSilentClientsOwnNothing: a fresh counted table holds a
// bit and a share of a rank per client and no words; words and records
// come only to clients that are given them.
func TestHintTableSilentClientsOwnNothing(t *testing.T) {
	const blocks = (100_000 + 63) / 64
	tab := NewHintTable(100_000, 2, true)
	base := tab.FootprintBytes()
	if want := int64(blocks*(8+4) + 8*hintChunkSlots); base != want {
		t.Fatalf("fresh footprint = %d, want %d", base, want)
	}
	for c := 0; c < 100_000; c += 7 {
		if _, _, ok := tab.Get(c, 1); ok {
			t.Fatal("hit in a fresh table")
		}
		tab.Del(c, 1)
	}
	if tab.FootprintBytes() != base {
		t.Fatal("Get/Del on silent clients allocated records")
	}
	// Every client holds a word and speaks: the total is a 16-byte
	// record per client plus the words, bitmap and ranks, the last chunk
	// cut to the clients that remain.
	tab.fill()
	for c := 0; c < 100_000; c++ {
		tab.Put(c, msg.Hint{Ino: 1, Authority: c % 8})
	}
	if got, want := tab.FootprintBytes(), int64(blocks*(8+4)+100_000*(4+16)); got != want {
		t.Fatalf("full footprint = %d, want %d", got, want)
	}
}

func TestNewHintTableRejectsTooManyWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHintTable(1, 1<<20+1) did not panic")
		}
	}()
	NewHintTable(1, 1<<20+1, false)
}

// TestHintRecordLayout holds the record to its sizes — a 2-way counted
// record is 16 B, the same as the bare region it replaced; a 2048-way
// closed-loop region is 12 288 B, a Go size class — and to its
// checkpoint form: a replicated hint keeps its authority through the
// uint64 round trip, and a claim moves the draw count into the record.
func TestHintRecordLayout(t *testing.T) {
	if b := NewHintTable(1, 2, true).stride * 4; b != 16 {
		t.Errorf("2-way record = %d B, want 16", b)
	}
	closed := NewHintTable(1, 2048, false)
	if b := closed.FootprintBytes() - 8 - 4 - 4; b != 12288 {
		t.Errorf("2048-way closed-loop region = %d B, want 12288", b)
	}
	if c := cap(closed.chunks[0]) * 4; c != 12288 {
		t.Errorf("2048-way closed-loop chunk capacity = %d B, want 12288", c)
	}

	tab := liveTable(3, 2)
	tab.word[1] = 12345
	tab.Put(1, msg.Hint{Ino: 7, Authority: 5, Replicated: true})
	tab.Put(1, msg.Hint{Ino: 8, Authority: hintMDS - 1})
	if rec := tab.record(1); rec == nil || rec[0] != 12345 || tab.word[1]&hintRecord == 0 {
		t.Fatalf("claim left word %#x, record %v; want the count 12345 moved into the record", tab.word[1], rec)
	}
	again := liveTable(3, 2)
	if err := again.restore(tab.snapshot()); err != nil {
		t.Fatal(err)
	}
	if auth, repl, ok := again.Get(1, 7); !ok || auth != 5 || !repl {
		t.Errorf("restored replicated hint = %d,%v,%v; want 5,true,true", auth, repl, ok)
	}
	if auth, repl, ok := again.Get(1, 8); !ok || auth != hintMDS-1 || repl {
		t.Errorf("restored hint = %d,%v,%v; want %d,false,true", auth, repl, ok, hintMDS-1)
	}
}

// TestHintSnapRefusesImpossibleSlots: a slot the table could not have
// written — no key, an authority past the cluster, a key outside its
// probe window — is an error that names it, not a record a later
// arrival indexes the cluster with.
func TestHintSnapRefusesImpossibleSlots(t *testing.T) {
	const ways = 8
	key := uint32(41) + 1
	home := NewHintTable(1, ways, false).home(key)
	for _, c := range []struct {
		name string
		slot uint32
		val  uint64
		want string
	}{
		{"no key", home, 3 << 32, "holds no key"},
		{"authority past the cluster", home, hintMDS<<32 | uint64(key), "names MDS 64 of a cluster of 64"},
		{"replicated, authority past the cluster", home, (snapReplicated|100)<<32 | uint64(key), "names MDS 100"},
		{"outside the probe window", (home + 4) % ways, 3<<32 | uint64(key), "outside its key's probe window"},
	} {
		ref := newDenseHints(1, ways)
		ref.slots[c.slot] = c.val
		err := NewHintTable(1, ways, false).restore(ref.snapshot())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: restore = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestHintTableArmingMerges drives arming passes that give random
// clients words — many at once, from an empty table with and without a
// reservation, so the array also grows mid-pass — and holds every word
// to a reference keyed by client: a word kept stays where slot finds
// it, in ascending client order, and a client never loses its word.
// After the last pass a settle drops the words that hold the shared
// count and keeps the records.
func TestHintTableArmingMerges(t *testing.T) {
	const clients = 5000
	for _, reserve := range []int{0, 700} {
		rng := sim.NewStream(int64(reserve), "hint-arming")
		tab := NewHintTable(clients, 2, true)
		tab.reserve(reserve)
		ref := map[int]uint32{}
		for pass := range 6 {
			a := tab.arm()
			for c := range clients {
				i := a.next(c)
				if w, ok := ref[c]; ok != (i >= 0) || ok && tab.word[i] != w {
					t.Fatalf("reserve %d pass %d client %d: word index %d, want the word %d (held %v)", reserve, pass, c, i, w, ok)
				}
				if i < 0 && rng.Pick(3<<pass) == 0 {
					i = a.gain(c)
					ref[c] = uint32(c)<<3 | uint32(pass)
				}
				if i >= 0 {
					tab.word[i] = ref[c]
				}
			}
			a.done()
			if len(tab.word) != len(ref) || tab.shared != uint32(pass+1) {
				t.Fatalf("reserve %d pass %d: %d words for %d clients, shared count %d", reserve, pass, len(tab.word), len(ref), tab.shared)
			}
			for c := range clients {
				i := tab.slot(c)
				if w, ok := ref[c]; ok != (i >= 0) || ok && tab.word[i] != w {
					t.Fatalf("reserve %d pass %d client %d: slot %d, want the word %d (held %v)", reserve, pass, c, i, w, ok)
				}
			}
		}
		// A restore's settle: client 3 holds a record, so it keeps its
		// word although its count is the least; the rest keep theirs
		// unless their count is the least.
		tab.fill()
		for c := range clients {
			tab.word[c] = uint32(4 + c%3)
		}
		tab.Put(3, msg.Hint{Ino: 9, Authority: 2})
		tab.settle(reserve)
		for c := range clients {
			if held, want := tab.slot(c) >= 0, c == 3 || c%3 != 0; held != want {
				t.Fatalf("reserve %d: after settle client %d holds a word: %v, want %v", reserve, c, held, want)
			}
		}
		if auth, _, ok := tab.Get(3, 9); !ok || auth != 2 || tab.record(3)[0] != 4 || tab.shared != 4 || cap(tab.word) != max(reserve, len(tab.word)) {
			t.Fatalf("reserve %d: settle left client 3's hint %d,%v, shared count %d, capacity %d", reserve, auth, ok, tab.shared, cap(tab.word))
		}
	}
}
