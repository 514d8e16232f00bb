package cache

import (
	"strings"
	"testing"

	"dynmds/internal/snap"
	"dynmds/internal/snap/snaptest"
)

// TestSnapRefusesUnaddressableCount: a cache section whose hot count is
// one past what a cache's refs address, padded so the codec's
// bytes-left bound passes, is refused before any entry is taken; the
// chunk allocator would panic on the entry past the limit.
func TestSnapRefusesUnaddressableCount(t *testing.T) {
	tr, _, f := buildChain(t, 2)
	c := New(8)
	if _, err := c.InsertPath(f, Auth, false); err != nil {
		t.Fatal(err)
	}
	w := snap.NewWriter()
	snap.Encoder(w).Section("cache", func(sc *snap.Codec) { c.Snap(sc, tr) })
	data, err := snaptest.Edit(w.Bytes(), "cache", func(b []byte) []byte {
		return snaptest.Overcount(b, 0, 3, MaxEntries+1) // capacity and two counters, then the hot count
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	fresh, dec := New(8), snap.Decoder(r)
	dec.Section("cache", func(sc *snap.Codec) { fresh.Snap(sc, tr) })
	if err := dec.Err(); err == nil || !strings.Contains(err.Error(), "a cache addresses 65472") {
		t.Fatalf("restore: %v, want the count refused", err)
	}
	if fresh.made != 0 {
		t.Fatalf("the refused restore made %d entry chunks", fresh.made)
	}
}
