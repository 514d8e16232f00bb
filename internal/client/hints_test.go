package client

import (
	"bytes"
	"sync"
	"testing"

	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
	"dynmds/internal/snap"
)

func TestHintTableRoundTrip(t *testing.T) {
	tab := NewHintTable(1, 8, 1)
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
	tab := NewHintTable(1, 8, 1)
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
	tab := NewHintTable(1, 4, 1)
	if tab.Ways() != 4 {
		t.Fatalf("ways = %d", tab.Ways())
	}
	for i := 0; i < 1000; i++ {
		tab.Put(0, msg.Hint{Ino: namespace.InodeID(i), Authority: i % 8})
	}
	if tab.Len(0) > 4 {
		t.Fatalf("region overflowed: len = %d", tab.Len(0))
	}
	// Non-power-of-two ways round up.
	if w := NewHintTable(1, 5, 1).Ways(); w != 8 {
		t.Fatalf("ways(5) = %d, want 8", w)
	}
}

func TestHintTableDelClearsExactSlot(t *testing.T) {
	tab := NewHintTable(1, 8, 1)
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
	if tab.Len(0) > tab.Ways() {
		t.Fatalf("region overflowed after churn: len = %d", tab.Len(0))
	}
}

func TestHintTablePerClientIsolation(t *testing.T) {
	tab := NewHintTable(4, 4, 1)
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
	tab := NewHintTable(2, 8, 1)
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
			return int(v &^ hintReplicated), v&hintReplicated != 0, true
		}
	}
	return 0, false, false
}

func (t *denseHints) put(client int, h msg.Hint) {
	key := uint32(h.Ino) + 1
	v := uint32(h.Authority)
	if h.Replicated {
		v |= hintReplicated
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
	w.Int(len(t.slots))
	w.Int(nz)
	for i, v := range t.slots {
		if v != 0 {
			w.Int(i)
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

// snapshot is the table's checkpoint section as finished bytes.
func (t *HintTable) snapshot() []byte {
	w := snap.NewWriter()
	snap.Encoder(w).Section("hints", t.snap)
	return w.Bytes()
}

// TestHintTableDifferential drives the region table and the dense
// reference through the same seeded histories: every answer and every
// snapshot byte must agree, across a mid-history restore into a fresh
// table (which hands regions out in client order, not first-Put order),
// whatever the number of allocation stripes.
func TestHintTableDifferential(t *testing.T) {
	for _, ways := range []int{2, 4, 2048} {
		for _, clients := range []int{1, 10_000} {
			stripes := 1
			if clients > 1 && ways < 2048 {
				stripes = ways + 1 // 3 and 5: neither divides the chunk size
			}
			rng := sim.NewStream(int64(ways*clients), "hint-differential")
			tab, ref := NewHintTable(clients, ways, stripes), newDenseHints(clients, ways)
			// Few enough speakers and keys that probe windows fill and
			// regions are revisited; most clients stay silent.
			speakers, keys := min(clients, 300), 8*ways
			const steps = 60_000
			for step := 0; step < steps; step++ {
				c := rng.Pick(speakers) * (clients / speakers)
				ino := namespace.InodeID(rng.Pick(keys))
				switch op := rng.Pick(10); {
				case op < 5:
					h := msg.Hint{Ino: ino, Authority: rng.Pick(64), Replicated: rng.Pick(4) == 0}
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
				r, err := snap.NewReader(got)
				if err != nil {
					t.Fatal(err)
				}
				tab = NewHintTable(clients, ways, stripes)
				dec := snap.Decoder(r)
				if dec.Section("hints", tab.snap); dec.Err() != nil {
					t.Fatal(dec.Err())
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
// Only the 32 MB region index exists until someone speaks.
func TestHintTableNoAliasingPast32Bits(t *testing.T) {
	tab := NewHintTable(1<<23, 1024, 1)
	tab.Put(0, msg.Hint{Ino: 7, Authority: 3})
	if _, _, ok := tab.Get(1<<22, 7); ok {
		t.Fatal("client 1<<22 sees client 0's hint")
	}
	tab.Put(1<<22, msg.Hint{Ino: 7, Authority: 5})
	if auth, _, ok := tab.Get(0, 7); !ok || auth != 3 {
		t.Fatalf("client 0's hint clobbered: %d,%v", auth, ok)
	}
	if got, want := tab.FootprintBytes(), int64(4<<23+8*hintChunkSlots); got != want {
		t.Fatalf("footprint = %d, want index + one chunk = %d", got, want)
	}
}

func TestHintTableRejectsWideInodeIDs(t *testing.T) {
	tab := NewHintTable(1, 8, 1)
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

func TestHintTableSilentClientsOwnNothing(t *testing.T) {
	tab := NewHintTable(100_000, 2, 1)
	base := tab.FootprintBytes()
	if want := int64(100_000*4 + 8*hintChunkSlots); base != want {
		t.Fatalf("fresh footprint = %d, want %d", base, want)
	}
	for c := 0; c < 100_000; c += 7 {
		if _, _, ok := tab.Get(c, 1); ok {
			t.Fatal("hit in a fresh table")
		}
		tab.Del(c, 1)
	}
	if tab.FootprintBytes() != base {
		t.Fatal("Get/Del on silent clients allocated regions")
	}
	// Every client speaks: the total is the dense slab plus the index,
	// the last chunk cut to the clients that remain.
	for c := 0; c < 100_000; c++ {
		tab.Put(c, msg.Hint{Ino: 1, Authority: c % 8})
	}
	if got, want := tab.FootprintBytes(), int64(100_000*(4+2*8)); got != want {
		t.Fatalf("full footprint = %d, want %d", got, want)
	}
}

func TestNewHintTableRejectsTooManyWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHintTable(1, 1<<20+1, 1) did not panic")
		}
	}()
	NewHintTable(1, 1<<20+1, 1)
}

// TestHintTableStripesShareNothing: the shards of a striped population
// run concurrently, each the only writer for its own clients (client mod
// K). First Puts allocate, so every stripe needs its own allocator;
// run under -race.
func TestHintTableStripesShareNothing(t *testing.T) {
	const clients, stripes = 40_000, 4
	tab := NewHintTable(clients, 2, stripes)
	var wg sync.WaitGroup
	for s := 0; s < stripes; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for c := s; c < clients; c += stripes {
				tab.Put(c, msg.Hint{Ino: namespace.InodeID(c), Authority: c % 64})
			}
		}(s)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if auth, _, ok := tab.Get(c, namespace.InodeID(c)); !ok || auth != c%64 || tab.Len(c) != 1 {
			t.Fatalf("client %d: Get = %d,%v, len %d", c, auth, ok, tab.Len(c))
		}
	}
	if got, want := tab.FootprintBytes(), int64(clients*(4+2*8)); got != want {
		t.Fatalf("footprint = %d, want %d: stripes over- or under-allocated", got, want)
	}
}
